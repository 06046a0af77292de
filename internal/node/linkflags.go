package node

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"repro/internal/faultnet"
	"repro/internal/resilience"
)

// LinkFlags is the command-line surface of a node's links: the
// deterministic fault schedule injected on its connections and the
// resumable session protocol that survives it. Every command that
// stands up a node registers this one set, so both ends of a link take
// the same flags (a resilient listener needs a resilient dialer). What
// else the session layer can tune stays at resilience.Config's defaults.
type LinkFlags struct {
	own       *flag.FlagSet   // the link flags alone: which names are ours
	faults    faultnet.Config // all but Partitions, which configs parses
	partition string
	resilient bool
	heartbeat time.Duration
}

// Register declares the link flags on fs.
func (l *LinkFlags) Register(fs *flag.FlagSet) {
	l.own = flag.NewFlagSet(filepath.Base(fs.Name()), flag.ContinueOnError)
	l.own.Int64Var(&l.faults.Seed, "seed", 1, "fault-schedule seed; same seed reproduces the same faults")
	l.own.Float64Var(&l.faults.DropProb, "fault-drop", 0, "probability a frame is dropped")
	l.own.Float64Var(&l.faults.DupProb, "fault-dup", 0, "probability a frame is duplicated")
	l.own.Float64Var(&l.faults.ReorderProb, "fault-reorder", 0, "probability a frame is swapped with its successor")
	l.own.Float64Var(&l.faults.CorruptProb, "fault-corrupt", 0, "probability one frame byte is flipped")
	l.own.DurationVar(&l.faults.Latency, "fault-latency", 0, "fixed wall-clock delay per frame")
	l.own.DurationVar(&l.faults.Jitter, "fault-jitter", 0, "uniform random extra delay per frame")
	l.own.Int64Var(&l.faults.BandwidthBps, "fault-bw", 0, "bandwidth cap in bits/s (0 = uncapped)")
	l.own.StringVar(&l.partition, "fault-partition", "", "scripted partitions, \"atframe:healms[,...]\" e.g. \"50:15\"")
	l.own.BoolVar(&l.resilient, "resilient", false, "speak the resumable session protocol (peer must too)")
	l.own.DurationVar(&l.heartbeat, "heartbeat", time.Second, "session heartbeat interval")
	l.own.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
}

// Has reports whether name is one of the link flags.
func (l *LinkFlags) Has(name string) bool { return l.own.Lookup(name) != nil }

// Resilient reports whether -resilient was given.
func (l *LinkFlags) Resilient() bool { return l.resilient }

// configs renders the parsed flags. -seed feeds both the fault
// schedule and the session layer's backoff jitter; without -resilient
// the session config is the zero value, which leaves the layer off.
func (l *LinkFlags) configs() (fc faultnet.Config, rc resilience.Config, err error) {
	fc = l.faults
	if l.partition != "" {
		if fc.Partitions, err = faultnet.ParsePartitions(l.partition); err != nil {
			return fc, rc, fmt.Errorf("%s: -fault-partition: %w", l.own.Name(), err)
		}
	}
	if l.resilient {
		rc = resilience.Config{Heartbeat: l.heartbeat, Seed: fc.Seed}
	}
	return fc, rc, nil
}

// Apply arms n's links as the flags say. Call before Listen/Connect.
func (l *LinkFlags) Apply(n *Node) error {
	fc, rc, err := l.configs()
	if err != nil {
		return err
	}
	if fc.Enabled() {
		n.SetFaults(fc)
		if fc.Lossy() && !l.resilient {
			log.Printf("%s: warning: drop, dup, reorder, corrupt or partition faults armed without -resilient; connections will not survive them", l.own.Name())
		}
	}
	if l.resilient {
		n.SetResilience(rc)
	}
	return nil
}
