package main

import "repro/internal/proto"

// budget is the layer budget of one traced simulation, in host
// milliseconds: a count from the run times a unit cost from a probe,
// per module, each line exclusive of the others.
//
// Event-queue work, proto framing and the sending half of channel and
// wire all run inside component steps, so comp is what cost
// attribution saw inside steps minus those; blocked is the remainder
// of the wall time that no line claims — waiting on grants, socket
// wake-ups, the scheduler's own bookkeeping, idle and GC. The lines
// are costs on one thread: where two Ps overlap them (the remote and
// fan workloads) they can sum past the wall, and blocked goes
// negative by the overlap; coverage says how much was attributed.
func budget(w *workload, per func(int64) float64, c counts, probe map[string]float64, compBusyMS, wallMS float64) map[string]float64 {
	const nsPerMS = 1e6
	unit := "packet" // the probes' name for what the DMA link moves
	if w.level == proto.LevelWord {
		unit = "word"
	}
	event := per(c.core.Deliveries) * probe["event.push_pop_ns"] / nsPerMS

	// proto: the transfer probe minus the plain delivery of as many
	// messages, which is core's and event's share of it.
	framing := 0.0
	if !w.fan {
		kb, drives := float64(w.pageSize)/1024, float64(w.pinned.Drives)
		framing = max(0, kb*probe["proto."+unit+"_kb_us"]/1e3-drives*probe["core.deliver_ns"]/nsPerMS)
	}

	// channel and wire; inStep is the part of them that data drives
	// pay inside the sending component's step.
	var channel, wire, inStep float64
	data := per(c.channel.DataOut)
	control := per(c.channel.AsksOut + c.channel.GrantsOut)
	switch {
	case !w.remote:
	case w.coalesce:
		encData, decData := probe["channel.encode_"+unit+"_ns"], probe["channel.decode_"+unit+"_ns"]
		channel = (data*(encData+decData) + control*(probe["channel.encode_word_ns"]+probe["channel.decode_word_ns"])) / nsPerMS
		wire = per(c.wire.BytesOut) / 1e6 / probe["wire.stream_mb_s"] * 1e3
		inStep = data*encData/nsPerMS + wire
	default:
		// Uncoalesced: every message is one gob frame encoded inside
		// Conn.Send, so the batch codec is never reached and the
		// codec cost is wire's.
		wire = per(c.wire.FramesOut) * (probe["wire.send_gob_ns"] + probe["wire.recv_gob_ns"]) / nsPerMS
		inStep = data * probe["wire.send_gob_ns"] / nsPerMS
	}

	comp := max(0, compBusyMS-event-framing-inStep)
	attributed := comp + event + framing + channel + wire
	coverage := 0.0
	if wallMS > 0 {
		coverage = attributed / wallMS
	}
	return map[string]float64{
		"budget.comp_ms":    comp,
		"budget.event_ms":   event,
		"budget.proto_ms":   framing,
		"budget.channel_ms": channel,
		"budget.wire_ms":    wire,
		"budget.blocked_ms": wallMS - attributed,
		"budget.coverage":   coverage,
	}
}
