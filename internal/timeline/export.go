package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/vtime"
)

// ExportOptions controls the Perfetto writer.
type ExportOptions struct {
	// Wall includes wall-clock args. Wall times differ run to run,
	// so the deterministic merged export leaves this off.
	Wall bool
	// Transient includes the wall-timing-dependent kinds (stall,
	// ask/grant, straggler, fault, session). Off for canonical
	// exports.
	Transient bool
}

// sortEvents orders events by the canonical key: virtual time, then
// kind, then actor/direction names, then per-stream sequence. The key
// is total over any one run's canonical events (two events of the
// same stream never share a sequence number), so sorting a merged
// batch from several nodes yields the same order every run.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.VT != b.VT {
			return a.VT < b.VT
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Sub != b.Sub {
			return a.Sub < b.Sub
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Node < b.Node
	})
}

// Canonical filters to the canonical kinds and sorts. The result is
// the committed, reproducible history of the run: on a conservative
// configuration its exported bytes are identical across same-seed
// reruns.
func Canonical(evs []Event) []Event {
	out := make([]Event, 0, len(evs))
	for _, e := range evs {
		if e.Kind.Canonical() {
			out = append(out, e)
		}
	}
	sortEvents(out)
	return out
}

// MergeEvents concatenates per-node event batches and sorts them on
// the canonical key.
func MergeEvents(batches ...[]Event) []Event {
	var total int
	for _, b := range batches {
		total += len(b)
	}
	out := make([]Event, 0, total)
	for _, b := range batches {
		out = append(out, b...)
	}
	sortEvents(out)
	return out
}

// flowID derives the causal flow id pairing the k-th committed send
// on a directed channel with its k-th committed delivery. Wire
// sequence numbers are deliberately not used: the endpoint resets
// them on rewinds and interleaves protocol chatter, so the committed
// index is the run-stable key.
func flowID(from, to string, k uint64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, from)
	h.Write([]byte{'\x00'})
	io.WriteString(h, to)
	fmt.Fprintf(h, "\x00%d", k)
	return h.Sum64()
}

// vtUS renders a virtual time (integer nanosecond ticks) as the
// microsecond-unit "ts" field of the Chrome trace format without
// going through floating point, so output bytes are exact.
func vtUS(t vtime.Time) string {
	n := int64(t)
	neg := ""
	if n < 0 {
		neg, n = "-", -n
	}
	return fmt.Sprintf("%s%d.%03d", neg, n/1000, n%1000)
}

func eventName(e *Event) string {
	switch e.Kind {
	case KindDrive:
		return "drive " + e.Net
	case KindSend:
		return "send " + e.Net
	case KindDeliver:
		return "recv " + e.Net
	case kindCheckpoint:
		if e.Detail == "" {
			return "checkpoint"
		}
		return "checkpoint " + e.Detail
	case kindRestore:
		if e.Detail == "" {
			return "restore"
		}
		return "restore " + e.Detail
	case KindRewind:
		return "rewind"
	case kindRunlevel:
		return "runlevel " + e.Comp + "=" + e.Detail
	case kindMigrate:
		return "migrate " + e.Comp + " " + e.Detail + " " + e.From + ">" + e.To
	case kindStall:
		return "stall"
	case kindResume:
		return "resume"
	case KindAsk:
		return "ask " + e.To
	case kindGrant:
		return "grant " + e.To
	case kindStraggler:
		return "straggler " + e.Net
	case KindFault:
		return "fault " + e.Detail
	case KindSession:
		return "session " + e.Detail
	}
	return e.Kind.String()
}

// WritePerfetto writes events as Chrome trace-event JSON (loadable at
// ui.perfetto.dev or chrome://tracing). Virtual time is the primary
// clock: one trace "process" per node, one "thread" per actor
// (subsystem, link, or session). Committed send/deliver pairs are
// linked with flow events so cross-node message arrows render.
// Events must already be sorted (sortEvents / Canonical / Merge*).
func WritePerfetto(w io.Writer, evs []Event, opt ExportOptions) error {
	bw := bufio.NewWriter(w)

	// Assign pids to nodes and tids to per-node actors, in sorted
	// order so numbering is deterministic.
	type track struct{ node, sub string }
	nodeSet := map[string]bool{}
	trackSet := map[track]bool{}
	for i := range evs {
		e := &evs[i]
		if !opt.Transient && !e.Kind.Canonical() {
			continue
		}
		nodeSet[e.Node] = true
		trackSet[track{e.Node, e.Sub}] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	pid := make(map[string]int, len(nodes))
	for i, n := range nodes {
		pid[n] = i + 1
	}
	tracks := make([]track, 0, len(trackSet))
	for t := range trackSet {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].node != tracks[j].node {
			return tracks[i].node < tracks[j].node
		}
		return tracks[i].sub < tracks[j].sub
	})
	tid := make(map[track]int, len(tracks))
	next := map[string]int{}
	for _, t := range tracks {
		next[t.node]++
		tid[t] = next[t.node]
	}

	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, "\n"+format, args...)
	}
	for _, n := range nodes {
		name := n
		if name == "" {
			name = "local"
		}
		emit("{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
			pid[n], strconv.Quote(name))
	}
	for _, t := range tracks {
		emit("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
			pid[t.node], tid[t], strconv.Quote(t.sub))
	}

	// Committed send/deliver pairing: the k-th send on from→to links
	// to the k-th delivery, counted in canonical order.
	kOut := map[[2]string]uint64{}
	kIn := map[[2]string]uint64{}

	seq := 0
	for i := range evs {
		e := &evs[i]
		if !opt.Transient && !e.Kind.Canonical() {
			continue
		}
		p, t := pid[e.Node], tid[track{e.Node, e.Sub}]
		ts := vtUS(e.VT)

		args := fmt.Sprintf("\"seq\":%d", seq)
		seq++
		if e.Comp != "" {
			args += ",\"comp\":" + strconv.Quote(e.Comp)
		}
		if e.Net != "" {
			args += ",\"net\":" + strconv.Quote(e.Net)
		}
		if e.From != "" {
			args += ",\"from\":" + strconv.Quote(e.From)
		}
		if e.To != "" {
			args += ",\"to\":" + strconv.Quote(e.To)
		}
		if e.Detail != "" {
			args += ",\"detail\":" + strconv.Quote(e.Detail)
		}
		if e.Kind == KindRewind {
			args += fmt.Sprintf(",\"discarded_until\":%q", vtUS(e.VT2))
		}
		if e.Kind == kindStall && e.VT2 != 0 {
			args += fmt.Sprintf(",\"need\":%q", vtUS(e.VT2))
		}
		if opt.Wall {
			args += fmt.Sprintf(",\"wall_ns\":%d", e.Wall)
		}

		name := strconv.Quote(eventName(e))
		switch e.Kind {
		case KindRewind:
			dur := e.VT2 - e.VT
			emit("{\"name\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{%s}}",
				name, ts, vtUS(dur), p, t, args)
		case KindSend:
			dir := [2]string{e.From, e.To}
			k := kOut[dir]
			kOut[dir]++
			id := flowID(e.From, e.To, k)
			emit("{\"name\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":0,\"pid\":%d,\"tid\":%d,\"args\":{%s}}",
				name, ts, p, t, args)
			emit("{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":\"0x%x\",\"ts\":%s,\"pid\":%d,\"tid\":%d}",
				id, ts, p, t)
		case KindDeliver:
			dir := [2]string{e.From, e.To}
			k := kIn[dir]
			kIn[dir]++
			id := flowID(e.From, e.To, k)
			emit("{\"name\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":0,\"pid\":%d,\"tid\":%d,\"args\":{%s}}",
				name, ts, p, t, args)
			emit("{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0x%x\",\"ts\":%s,\"pid\":%d,\"tid\":%d}",
				id, ts, p, t)
		default:
			emit("{\"name\":%s,\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{%s}}",
				name, ts, p, t, args)
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// nativeFile is the per-node on-disk schema: a node name plus the raw
// event list, suitable for cross-node merging.
type nativeFile struct {
	Node   string  `json:"node"`
	Events []Event `json:"events"`
}

// WriteNative writes the recorder's full committed view (all kinds,
// wall clocks included) as a per-node JSON file for later merging.
func (r *Recorder) WriteNative(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("timeline: nil recorder")
	}
	enc := json.NewEncoder(w)
	return enc.Encode(nativeFile{Node: r.nodeName(), Events: r.Events()})
}

// readNative reads a per-node file written by WriteNative, filling in
// the file-level node name on any event missing one.
func readNative(rd io.Reader) (node string, evs []Event, err error) {
	var f nativeFile
	if err := json.NewDecoder(rd).Decode(&f); err != nil {
		return "", nil, err
	}
	for i := range f.Events {
		if f.Events[i].Node == "" {
			f.Events[i].Node = f.Node
		}
	}
	return f.Node, f.Events, nil
}

// MergeFiles reads per-node timeline files, merges and canonicalizes
// them, and writes the deterministic merged Perfetto JSON to out.
func MergeFiles(out io.Writer, paths ...string) error {
	var batches [][]Event
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		_, evs, err := readNative(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("timeline: %s: %w", p, err)
		}
		batches = append(batches, evs)
	}
	return WritePerfetto(out, Canonical(MergeEvents(batches...)), ExportOptions{})
}
