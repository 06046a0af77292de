package timeline

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/signal"
	"repro/internal/vtime"
)

// The waveform exporter: "what value was on this net when". It reads
// only the KindDrive events of a committed view (Recorder.Events), so
// a rewind that dropped a subsystem's discarded future from the ring
// has dropped it from the waveform too. Events read back from a native
// file carry no Value: they export to VCD as bare drive counters.

// drives returns the drive events of evs in virtual-time order, ties
// keeping record order.
func drives(evs []Event) []Event {
	out := make([]Event, 0, len(evs))
	for i := range evs {
		if evs[i].Kind == KindDrive {
			out = append(out, evs[i])
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].VT < out[j].VT })
	return out
}

// vcdVar is one declared VCD signal.
type vcdVar struct {
	id    string
	width int
}

// WriteVCD dumps the drive events of evs as a Value Change Dump (IEEE
// 1364, readable by GTKWave and every commercial wave viewer). Each
// net becomes a signal inside a scope named after its subsystem. Signal
// widths are inferred from the values observed: Level -> 1-bit wire,
// Byte -> 8, Word/BusCycle -> 32, packets and frames -> a 32-bit
// "bytes transferred" vector, everything else -> a 32-bit event
// counter.
func WriteVCD(w io.Writer, evs []Event) error {
	events := drives(evs)
	// Collect signals per (sub, net).
	type key struct{ sub, net string }
	vars := make(map[key]*vcdVar)
	var order []key
	for _, e := range events {
		k := key{e.Sub, e.Net}
		if vars[k] == nil {
			vars[k] = &vcdVar{width: valueWidth(e.Value)}
			order = append(order, k)
		} else if wd := valueWidth(e.Value); wd > vars[k].width {
			vars[k].width = wd
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].sub != order[j].sub {
			return order[i].sub < order[j].sub
		}
		return order[i].net < order[j].net
	})
	for i, k := range order {
		vars[k].id = vcdID(i)
	}

	// Sanitizing can collide distinct raw names ("a-b" and "a_b" both
	// become "a_b"); two $var declarations sharing one name inside a
	// scope — or two sibling scopes sharing one name — confuse every
	// viewer even though the ids differ. Disambiguate with a numeric
	// suffix, raw sort order deciding who keeps the bare name.
	scopeNames := make(map[string]string) // raw sub -> unique scope name
	usedScopes := make(map[string]bool)
	netNames := make(map[key]string) // (sub, net) -> unique var name
	usedNets := make(map[key]bool)   // (scope name, var name) seen
	for _, k := range order {
		if _, ok := scopeNames[k.sub]; !ok {
			scopeNames[k.sub] = uniqueName(sanitize(k.sub), usedScopes)
		}
		scope := scopeNames[k.sub]
		base := sanitize(k.net)
		name := base
		for n := 2; usedNets[key{scope, name}]; n++ {
			name = fmt.Sprintf("%s_%d", base, n)
		}
		usedNets[key{scope, name}] = true
		netNames[k] = name
	}

	if _, err := fmt.Fprintf(w, "$version pia co-simulator trace $end\n$timescale 1ns $end\n"); err != nil {
		return err
	}
	cur := ""
	for _, k := range order {
		if k.sub != cur {
			if cur != "" {
				fmt.Fprintf(w, "$upscope $end\n")
			}
			fmt.Fprintf(w, "$scope module %s $end\n", scopeNames[k.sub])
			cur = k.sub
		}
		v := vars[k]
		fmt.Fprintf(w, "$var wire %d %s %s $end\n", v.width, v.id, netNames[k])
	}
	if cur != "" {
		fmt.Fprintf(w, "$upscope $end\n")
	}
	if _, err := fmt.Fprintf(w, "$enddefinitions $end\n"); err != nil {
		return err
	}

	last := vtime.Time(-1)
	counters := make(map[key]uint32)
	for _, e := range events {
		if e.VT != last {
			if _, err := fmt.Fprintf(w, "#%d\n", int64(e.VT)); err != nil {
				return err
			}
			last = e.VT
		}
		k := key{e.Sub, e.Net}
		v := vars[k]
		counters[k]++
		if err := writeChange(w, v, e.Value, counters[k]); err != nil {
			return err
		}
	}
	return nil
}

func writeChange(w io.Writer, v *vcdVar, value any, counter uint32) error {
	var err error
	switch x := value.(type) {
	case signal.Level:
		bit := "0"
		if x {
			bit = "1"
		}
		if v.width > 1 {
			// The net also carried wider values (a detail-level switch
			// mid-run), so it was declared as a vector; a scalar change
			// on a vector var is malformed VCD.
			_, err = fmt.Fprintf(w, "b%s %s\n", bit, v.id)
			break
		}
		_, err = fmt.Fprintf(w, "%s%s\n", bit, v.id)
	case signal.Byte:
		_, err = fmt.Fprintf(w, "b%b %s\n", uint8(x), v.id)
	case signal.Word:
		_, err = fmt.Fprintf(w, "b%b %s\n", uint32(x), v.id)
	case signal.BusCycle:
		_, err = fmt.Fprintf(w, "b%b %s\n", uint32(x.Data), v.id)
	case signal.Packet:
		_, err = fmt.Fprintf(w, "b%b %s\n", uint32(len(x)), v.id)
	case signal.Frame:
		_, err = fmt.Fprintf(w, "b%b %s\n", uint32(len(x.Payload)), v.id)
	case signal.IRQ:
		_, err = fmt.Fprintf(w, "b%b %s\n", uint32(x.Line), v.id)
	default:
		// Arbitrary payloads: expose the drive counter so activity is
		// visible in the wave.
		_, err = fmt.Fprintf(w, "b%b %s\n", counter, v.id)
	}
	return err
}

// valueWidth infers a signal width from a sample value.
func valueWidth(v any) int {
	switch v.(type) {
	case signal.Level:
		return 1
	case signal.Byte:
		return 8
	default:
		return 32
	}
}

// vcdID generates the i-th VCD identifier (printable ASCII 33..126).
func vcdID(i int) string {
	const base = 94
	id := []byte{}
	for {
		id = append(id, byte(33+i%base))
		i = i/base - 1
		if i < 0 {
			break
		}
	}
	return string(id)
}

// uniqueName returns base, or base_2, base_3, ... — the first form
// not yet in used — and marks it used.
func uniqueName(base string, used map[string]bool) string {
	name := base
	for n := 2; used[name]; n++ {
		name = fmt.Sprintf("%s_%d", base, n)
	}
	used[name] = true
	return name
}

// sanitize makes a name VCD-identifier safe.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}
