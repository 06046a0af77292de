package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// populate sets every settable field under v to a non-zero value, so
// no omitempty key drops out of the marshalled form and a field added
// to a row type later is covered without being named here.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				populate(v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		populate(k)
		populate(e)
		v.SetMapIndex(k, e)
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(0xabc)
	case reflect.Uint64:
		v.SetUint(0xabc)
	case reflect.Float64:
		v.SetFloat(1.5)
	default:
		panic(fmt.Sprintf("populate: unhandled kind %s", v.Kind()))
	}
}

func full[T any]() T {
	var v T
	populate(reflect.ValueOf(&v).Elem())
	return v
}

// object is a JSON object as written: keys in order, values raw.
type object struct {
	keys []string
	vals map[string]json.RawMessage
}

func parseObject(t *testing.T, raw []byte) object {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %v %v", tok, err)
	}
	o := object{vals: map[string]json.RawMessage{}}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		o.keys = append(o.keys, k.(string))
		o.vals[k.(string)] = v
	}
	return o
}

// rowsOf returns the objects of an array-of-objects value, nil for any
// other value.
func rowsOf(t *testing.T, raw json.RawMessage) []object {
	t.Helper()
	var elems []json.RawMessage
	if json.Unmarshal(raw, &elems) != nil || len(elems) == 0 || elems[0][0] != '{' {
		return nil
	}
	var out []object
	for _, e := range elems {
		out = append(out, parseObject(t, e))
	}
	return out
}

// checkObject holds a committed object against the fully populated one
// the current code writes: the committed keys must appear in the same
// relative order, and values must be of the same JSON kind (a digest a
// string of 16 hex digits, a duration a number).
func checkObject(t *testing.T, where string, committed, got object) {
	t.Helper()
	next := 0
	for _, k := range committed.keys {
		i := slices.Index(got.keys[next:], k)
		if i < 0 {
			t.Errorf("%s: committed key order %v is not kept by %v (at %q)", where, committed.keys, got.keys, k)
			return
		}
		next += i + 1
		if c, g := committed.vals[k][0], got.vals[k][0]; jsonKind(c) != jsonKind(g) {
			t.Errorf("%s: %q is written as %s, committed as %s", where, k, got.vals[k], committed.vals[k])
		}
	}
}

func jsonKind(first byte) byte {
	switch first {
	case 't', 'f':
		return 'b'
	case '{', '[', '"', 'n':
		return first
	}
	return '0'
}

// TestArtifactKeysMatchCommitted marshals one fully populated row of
// each kind through the artifact piabench writes for it and checks the
// result against the committed BENCH file of that experiment: same
// header keys, same row keys, same order, same value kinds. Every key
// the rows can produce must occur in the committed file (or be listed
// as newer than it), so a renamed or added key fails here rather than
// in whatever reads the artifacts.
func TestArtifactKeysMatchCommitted(t *testing.T) {
	cases := []struct {
		file     string
		artifact any
		newer    []string // keys the committed file predates
	}{
		{"BENCH_1.json", table1Artifact(experiments.Table1Config{}, full[[]experiments.Table1Row]()), []string{"metrics"}},
		{"BENCH_2.json", parallelArtifact(experiments.ParallelConfig{}, full[[]experiments.ParallelRow](), full[[]experiments.Table1Row]()), nil},
		{"BENCH_4.json", migrateArtifact(experiments.MigrateConfig{}, full[[]experiments.MigrateRow]()), nil},
		{"BENCH_5.json", optimisticArtifact(experiments.OptimisticConfig{}, full[[]experiments.OptimisticRow]()), nil},
		{"BENCH_6.json", sessionsArtifact(experiments.SessionsConfig{}, full[[]experiments.SessionsRow]()), nil},
		{"BENCH_7.json", obsArtifact(experiments.ObsConfig{}, full[[]experiments.ObsRow]()), nil},
	}
	for _, tc := range cases {
		raw, err := os.ReadFile("../../" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(tc.artifact)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		committed, got := parseObject(t, raw), parseObject(t, data)
		checkObject(t, tc.file, committed, got)
		seen := append(slices.Clone(committed.keys), tc.newer...)
		for _, k := range got.keys {
			if !slices.Contains(seen, k) {
				t.Errorf("%s: header key %q is not in the committed file", tc.file, k)
			}
			gotRows := rowsOf(t, got.vals[k])
			if gotRows == nil || slices.Contains(tc.newer, k) {
				continue
			}
			var rowKeys []string
			for i, row := range rowsOf(t, committed.vals[k]) {
				checkObject(t, fmt.Sprintf("%s %s[%d]", tc.file, k, i), row, gotRows[0])
				rowKeys = append(rowKeys, row.keys...)
			}
			for _, rk := range gotRows[0].keys {
				if !slices.Contains(rowKeys, rk) {
					t.Errorf("%s: %s key %q is in no committed row", tc.file, k, rk)
				}
			}
		}
	}
}

// TestDigestAndDurationForms pins the two value forms the row types
// rely on encoding/json for: a digest is 16 hex digits, a duration —
// wall or virtual — its nanosecond count.
func TestDigestAndDurationForms(t *testing.T) {
	data, err := json.Marshal(full[experiments.ParallelRow]())
	if err != nil {
		t.Fatal(err)
	}
	row := parseObject(t, data)
	for k, want := range map[string]string{
		"drive_digest": `"0000000000000abc"`,
		"wall_ns":      "2748",
		"virtual_ns":   "2748",
	} {
		if got := string(row.vals[k]); got != want {
			t.Errorf("%s = %s, want %s", k, got, want)
		}
	}
	data, _ = json.Marshal(full[experiments.MigrateRow]())
	if got := string(parseObject(t, data).vals["digests"]); got != `{"x":"0000000000000abc"}` {
		t.Errorf("digests = %s", got)
	}
}

// TestPrintersRunAll runs every experiment of -exp all at an 8 KB page
// with stdout captured, and fails on an error or on a table header (or,
// for the figures that print no table, a label) missing from what the
// experiment printed. Columns are aligned by spaces, so a header is
// matched with every run of two or more spaces read as one tab.
func TestPrintersRunAll(t *testing.T) {
	headers := map[string][]string{
		"table1":      {"Location\tDetail level\tsimulation time\tvirtual load\tlink drives\twire frames\twire bytes\toverhead"},
		"fig1":        {"page loads completed:", "interrupts forwarded from remote hardware:", "wall clock:"},
		"fig2":        {"net\tcrossing\tfragments"},
		"fig3":        {"policy\twall\tdelivered\tstalls\trestores\tstragglers"},
		"fig4":        {"asks to SS2:", "asks to SS3:", "deliveries:"},
		"fig6":        {"CPU subsystem", "remote subsystem", "smoke run (remote, packet):"},
		"runlevel":    {"mode\twall\tlink drives"},
		"policy":      {"period\tpolicy\twall\tstalls\trestores\tstragglers"},
		"checkpoint":  {"interval\tcheckpoints\treplay steps\twall"},
		"incremental": {"mode\tcheckpoints\ttotal bytes"},
		"snapshot":    {"subsystems\twall\tin-flight captured"},
		"memsync":     {"mode\tviolations\trestores\tdynamically marked\twall"},
	}
	gap := regexp.MustCompile(`  +`)
	for _, name := range all {
		want, ok := headers[name]
		if !ok {
			t.Errorf("%s: no expected header", name)
			continue
		}
		out := captureStdout(t, func() error { return runners[name](8) })
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			lines = append(lines, gap.ReplaceAllString(strings.TrimSpace(l), "\t"))
		}
		for _, h := range want {
			if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, h) }) {
				t.Errorf("%s: printed no line starting %q:\n%s", name, h, out)
			}
		}
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what
// it printed; f's error fails the test.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	file, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	stdout := os.Stdout
	os.Stdout = file
	err = f()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
