package pia

import (
	"repro/internal/hwstub"
	"repro/internal/proto"
	"repro/internal/timing"
)

// Hardware-in-the-loop surface (package hwstub re-exports).
type (
	// HWDevice is the hardware stub contract (§2.3): set/read time,
	// run for a window, stall, buffer interrupts, access registers.
	HWDevice = hwstub.Device
	// HWInterrupt is an interrupt buffered by hardware.
	HWInterrupt = hwstub.Interrupt
	// SimBoard is a simulated Pamette-style board.
	SimBoard = hwstub.SimBoard
	// HWAdapter patches a device into a simulation as a component.
	HWAdapter = hwstub.Adapter
	// HWLogic programs a SimBoard.
	HWLogic = hwstub.Logic
)

// NewSimBoard creates a simulated board with the given logic.
func NewSimBoard(logic HWLogic) *SimBoard { return hwstub.NewSimBoard(logic) }

// ServeHardware publishes a device on a TCP hardware server and
// returns the server handle and bound address.
func ServeHardware(dev HWDevice, addr string) (*hwstub.Server, string, error) {
	return hwstub.Serve(dev, addr)
}

// DialHardware connects to a remote hardware server.
func DialHardware(addr string) (*hwstub.RemoteDevice, error) { return hwstub.Dial(addr) }

// Protocol library surface (package proto re-exports).
const (
	// LevelWord is the paper's word passage (4-byte words).
	LevelWord = proto.LevelWord
	// LevelPacket is the paper's packet passage (1 KB packets).
	LevelPacket = proto.LevelPacket
)

type (
	// ProtoConfig prices a transfer's units.
	ProtoConfig = proto.Config
	// Assembler reassembles transfers at any detail level.
	Assembler = proto.Assembler
)

// DefaultProtoConfig matches the paper's experiment.
var DefaultProtoConfig = proto.DefaultConfig

// SendMessage transfers a payload at the given detail level. Packets
// are views of payload: do not modify it after the call. Only the Last
// packet owns its bytes.
func SendMessage(p *Proc, port string, payload []byte, level string, cfg ProtoConfig) int {
	return proto.SendMessage(p, port, payload, level, cfg)
}

// ReceiveMessage assembles one complete message from a port.
func ReceiveMessage(p *Proc, port string, a *Assembler) ([]byte, bool, error) {
	return proto.ReceiveMessage(p, port, a)
}

// NewAssembler creates an idle assembler.
func NewAssembler() *Assembler { return proto.NewAssembler() }

// Timing estimation surface (package timing re-exports): DESIGN.md
// §2's basic-block timing estimator.
type (
	// TimingModel characterizes a processor.
	TimingModel = timing.Model
	// TimingBlock is a basic block's instruction mix.
	TimingBlock = timing.Block
)

// ModelI960 is the i960 embedded processor the paper's remote
// evaluation discussion mentions.
var ModelI960 = timing.I960

// NewEstimator builds an estimator for a model: its Charge advances a
// component's local time by a basic block's cost.
func NewEstimator(m *TimingModel) (*timing.Estimator, error) { return timing.NewEstimator(m) }
