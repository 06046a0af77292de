package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseOptions runs one argv through the real flag set and returns the
// options with the names given, as main does.
func parseOptions(t *testing.T, argv string) (*options, []string) {
	t.Helper()
	fs := flag.NewFlagSet("pianode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	set, err := o.parse(fs, strings.Fields(argv))
	if err != nil {
		t.Fatalf("%q does not parse: %v", argv, err)
	}
	return &o, set
}

// TestValidate: one row per rule — each message the scattered
// log.Fatals used to print, each flag a mode used to ignore in
// silence — and several at once are all reported.
func TestValidate(t *testing.T) {
	const peers = "-peers a=127.0.0.1:1,b=127.0.0.1:2,c=127.0.0.1:3"
	for _, tc := range []struct {
		argv string
		want []string // every conflict, in order, without the "pianode: " prefix
	}{
		{"-timeline-merge out.json", []string{"-timeline-merge needs at least one per-node timeline file argument"}},
		{"-pprof", []string{"-pprof needs -metrics to provide the HTTP listener"}},
		{"-flight-dump d", []string{"-flight-dump needs -metrics to enable the flight recorder"}},
		{peers, []string{"-peers needs -mesh-name to say which member this node is"}},
		{"-level packetlevel", []string{`-level "packetlevel" is not a detail level (hardwareLevel|wordLevel|packetLevel)`}},
		{"-level wordLevel -mesh-name a " + peers, []string{"-level is not read in mesh mode"}},
		{"-attrib-top 3", []string{"-attrib-top needs -metrics (or -report) to provide the registry"}},
		// The same rule in every mode: mesh used to drop it silently.
		{"-mesh-name a -attrib-top 3 " + peers, []string{"-attrib-top needs -metrics (or -report) to provide the registry"}},
		// A member listens on its own -peers entry: -listen may repeat it.
		{"-mesh-name a -listen 127.0.0.1:9 " + peers, []string{"-listen 127.0.0.1:9 contradicts this member's -peers entry 127.0.0.1:1"}},
		{"-mesh-name a -listen 127.0.0.1:1 " + peers, nil},

		// Flags the selected mode never read.
		{"-mesh-name a -report 1s " + peers, []string{"-report is not read in mesh mode"}},
		{"-mesh-name a -workers 2 " + peers, []string{"-workers is not read in mesh mode"}},
		{"-mesh-name a -page 8 -images 2 -max-sessions 5 -max-mem 1 -max-session-mem 1 -max-steps 1 " + peers, []string{
			"-images is not read in mesh mode", "-max-mem is not read in mesh mode", "-max-session-mem is not read in mesh mode",
			"-max-sessions is not read in mesh mode", "-max-steps is not read in mesh mode", "-page is not read in mesh mode"}},
		{"-mesh-step 1ms", []string{"-mesh-step is not read in service mode"}},
		{"-mesh-until 1s -mesh-migrate hot:b@1ms", []string{
			"-mesh-migrate is not read in service mode", "-mesh-until is not read in service mode"}},
		{"-timeline-merge out.json -seed 3 -metrics :0 -level wordLevel a.json", []string{
			"-level is not read in timeline-merge mode", "-metrics is not read in timeline-merge mode", "-seed is not read in timeline-merge mode"}},

		// Two unrelated conflicts: both reported.
		{"-pprof -flight-dump d -mesh-step 9ms", []string{
			"-mesh-step is not read in service mode",
			"-pprof needs -metrics to provide the HTTP listener",
			"-flight-dump needs -metrics to enable the flight recorder"}},
	} {
		o, set := parseOptions(t, tc.argv)
		var got []string
		if err := o.validate(set); err != nil {
			got = strings.Split(err.Error(), "\n")
		}
		for i := range got {
			got[i] = strings.TrimPrefix(got[i], "pianode: ")
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("pianode %s\n got %q\nwant %q", tc.argv, got, tc.want)
		}
	}
}

// TestValidateAcceptsDocumentedInvocations: every pianode command line
// quoted in README.md, DESIGN.md, this package's doc comment and
// .claude/skills/verify/SKILL.md selects the mode its document says
// and raises no conflict. (EXPERIMENTS.md and the Makefile quote none.)
func TestValidateAcceptsDocumentedInvocations(t *testing.T) {
	const peers = "-peers alpha=127.0.0.1:9301,bravo=127.0.0.1:9302,charlie=127.0.0.1:9303"
	for _, tc := range []struct {
		argv string
		mode mode
	}{
		{"-listen 127.0.0.1:7777 -level packetLevel", modeService},
		{"-listen 127.0.0.1:7777", modeService},
		{"-mesh-name bravo " + peers + " -metrics 127.0.0.1:9312", modeMesh},
		{"-mesh-name charlie " + peers, modeMesh},
		{"-mesh-name alpha " + peers + " -mesh-migrate hot:bravo@50ms", modeMesh},
		{"-listen 127.0.0.1:7777 -metrics 127.0.0.1:9390 -workers 4 -max-sessions 500", modeService},
		{"-metrics 127.0.0.1:9390", modeService},
		{"-metrics 127.0.0.1:9390 -pprof", modeService},
		{"-report 5s", modeService},
		{"-timeline node-a.json", modeService},
		{"-timeline-merge merged.json node-a.json node-b.json", modeMerge},
		{"-listen :7000 -metrics :9000 -flight-dump ./dumps -watch-interval 1s -attrib-top 5", modeService},
		{"-flight-dump DIR -metrics :9000", modeService},
		{"-listen 127.0.0.1:7911 -page 8", modeService},
		{"-listen 127.0.0.1:7911 -page 8 -level wordLevel", modeService},
		{"-listen 127.0.0.1:7911 -page 8 -fault-drop 0.02 -fault-reorder 0.01 -fault-partition 50:15 -seed 5 -resilient -heartbeat 20ms", modeService},
		{"-v", modeService},
	} {
		o, set := parseOptions(t, tc.argv)
		if got := o.mode(); got != tc.mode {
			t.Errorf("pianode %s: %s mode, want %s", tc.argv, got, tc.mode)
		}
		if err := o.validate(set); err != nil {
			t.Errorf("pianode %s: %v", tc.argv, err)
		}
	}
}

// TestEveryFlagHasReaders: the table covers the flag set — every flag
// is read by some mode, and no row names a flag that is gone.
func TestEveryFlagHasReaders(t *testing.T) {
	fs := flag.NewFlagSet("pianode", flag.ContinueOnError)
	var o options
	o.register(fs)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if readBy[f.Name] == 0 && !o.links.Has(f.Name) {
			t.Errorf("-%s has no row in readBy", f.Name)
		}
		if readBy[f.Name] != 0 && o.links.Has(f.Name) {
			t.Errorf("-%s is a link flag and has a row in readBy", f.Name)
		}
	})
	if n != 34 {
		t.Errorf("%d flags declared, want 34", n)
	}
	for _, gone := range []string{"service", "optimism"} {
		if fs.Lookup(gone) != nil {
			t.Errorf("-%s is declared", gone)
		}
	}
	for name := range readBy {
		if fs.Lookup(name) == nil {
			t.Errorf("readBy names -%s, which is not a flag", name)
		}
	}
}
