// Command bench is Pia's one measuring instrument: it runs one
// workload as a closed loop with one client for a fixed time, checks
// every simulated result against invariants, and prints every metric
// by name and unit. Host time is what is measured; simulated time,
// drive counts and digests must not move. See README.md.
//
//	go run ./bench -workload remote_word -seed 1 -seconds 20 -trace 0
//	go run ./bench -describe
//	go run ./bench -compare bench/out/parent.json bench/out/change.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// outDir receives every file the harness writes: results and spans.
const outDir = "bench/out"

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see -describe)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs; 1 is the paper's set-up")
		seconds  = flag.Int("seconds", runSeconds, "measuring time")
		trace    = flag.Int("trace", 0, "1 selects the traced run that yields the per-layer metrics")
		label    = flag.String("label", "results", "append the full result to bench/out/<label>.json")
		describe = flag.Bool("describe", false, "print BENCHMARK.json from the registry")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	var err error
	switch {
	case *describe:
		_, err = os.Stdout.Write(describeJSON())
	case *compare && flag.NArg() == 2:
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *compare:
		err = fmt.Errorf("-compare needs two result files, got %d", flag.NArg())
	default:
		err = runWorkload(*name, *seed, *seconds, *trace, *label)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var labelRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runWorkload measures one workload, stores the full record under
// bench/out and prints it.
func runWorkload(name string, seed int64, seconds, trace int, label string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 || !labelRE.MatchString(label) {
		return fmt.Errorf("bad arguments: seconds %d, trace %d, label %q", seconds, trace, label)
	}
	res, err := run(w, seed, seconds, trace)
	if err != nil {
		return err
	}
	if err := appendResult(filepath.Join(outDir, label+".json"), res); err != nil {
		return err
	}
	return printResult(res)
}

// appendResult adds the record as one line to the label file, so a
// set of runs accumulates into one file that -compare reads.
func appendResult(path string, res *result) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return json.NewEncoder(f).Encode(res)
}

// printResult prints the stamp and every metric by name and unit,
// then the driver's line: one JSON object, last on standard output.
func printResult(res *result) error {
	e := res.Env
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Printf("env %s %s/%s nproc %d GOMAXPROCS %d cpu %q build %s start %s\n",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.Build, e.Start.Format("2006-01-02T15:04:05Z"))
	cfg, err := json.Marshal(res.Config)
	if err != nil {
		return err
	}
	fmt.Printf("config %s\n", cfg)
	fmt.Printf("invariants %+v\n", res.Invariants)
	fmt.Printf("canary_spin_ms before %.3f after %.3f noisy %v\n", res.CanaryMS[0], res.CanaryMS[1], res.Noisy)
	fmt.Printf("samples %d attempted %d failed %d\n", res.Samples, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}
