package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/node"
)

// TestConflict: link flags need a link, a run control script needs the
// ASIC in this process; every wubbleu command line quoted in
// README.md, this package's doc comment and
// .claude/skills/verify/SKILL.md is accepted.
func TestConflict(t *testing.T) {
	const faults = "-fault-drop 0.02 -fault-reorder 0.01 -fault-partition 50:15 -seed 5 -resilient -heartbeat 20ms"
	for _, tc := range []struct {
		argv, want string
	}{
		{"-fault-drop 0.1", "wubbleu: -fault-*/-resilient apply to remote runs (local runs have no network link)"},
		{"-resilient", "wubbleu: -fault-*/-resilient apply to remote runs (local runs have no network link)"},
		{faults, "wubbleu: -fault-*/-resilient apply to remote runs (local runs have no network link)"},
		{"-remote 127.0.0.1:7777 -script rc.pia", "wubbleu: -script applies to local runs (the remote node owns the ASIC's runlevel)"},

		{"", ""},
		{"-level wordLevel", ""},
		{"-remote 127.0.0.1:7777", ""},
		{"-level wordLevel -loads 2 -script rc.pia", ""},
		{"-remote 127.0.0.1:7911 -level wordLevel -page 8", ""},
		{"-remote 127.0.0.1:7911 -level wordLevel -page 8 " + faults, ""},
	} {
		fs := flag.NewFlagSet("wubbleu", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		remote := fs.String("remote", "", "")
		for _, name := range []string{"level", "page", "images", "loads", "script"} {
			fs.String(name, "", "")
		}
		var links node.LinkFlags
		links.Register(fs)
		if err := fs.Parse(strings.Fields(tc.argv)); err != nil {
			t.Fatalf("wubbleu %s does not parse: %v", tc.argv, err)
		}
		var set []string
		fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		got := ""
		if err := conflict(*remote != "", set, &links); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("wubbleu %s\n got %q\nwant %q", tc.argv, got, tc.want)
		}
	}
}
