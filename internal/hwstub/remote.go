package hwstub

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/vtime"
	"repro/internal/wire"
)

// The remote hardware server: the paper's "small server which resides
// on the embedded system". It exposes the stub operations over the wire
// framing (the RPC of rpc.go), so a remotely located device can be
// patched into a simulated circuit.

// Server makes a Device remotely accessible.
type Server struct {
	dev Device
	ln  net.Listener
	wg  sync.WaitGroup
}

// Serve starts a hardware server for dev on addr (":0" for
// ephemeral); it returns the bound address.
func Serve(dev Device, addr string) (*Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("hwstub: listen: %w", err)
	}
	s := &Server{dev: dev, ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(wire.NewConn(c))
		}()
	}
}

// serve answers requests until the connection drops or speaks out of
// protocol. The request's payload is decoded before the next read and
// the response is encoded into one buffer recycled across calls.
func (s *Server) serve(c *wire.Conn) {
	defer c.Close()
	var buf []byte
	for {
		kind, payload, err := c.RecvFrame()
		if err != nil {
			return
		}
		req, err := decodeReq(kind, payload)
		if err != nil {
			// Answer with the cause — under the op the caller sent, if it
			// sent one, which is what its call is waiting on — and close.
			var op byte
			if len(payload) > 0 {
				op = payload[0]
			}
			_ = c.SendRaw(wire.FrameHW, appendResp(buf[:0], hwResp{Op: op, Err: err.Error()}))
			return
		}
		resp := hwResp{Op: req.Op}
		switch req.Op {
		case opSetTime:
			resp.Err = errStr(s.dev.SetTime(req.Time))
		case opReadTime:
			t, err := s.dev.ReadTime()
			resp.Time, resp.Err = t, errStr(err)
		case opRunFor:
			irqs, err := s.dev.RunFor(req.Dur)
			resp.IRQs, resp.Err = irqs, errStr(err)
		case opStall:
			resp.Err = errStr(s.dev.Stall())
		case opPending:
			irqs, err := s.dev.Pending()
			resp.IRQs, resp.Err = irqs, errStr(err)
		case opWrite:
			resp.Err = errStr(s.dev.WriteReg(req.Addr, req.Val))
		case opRead:
			v, err := s.dev.ReadReg(req.Addr)
			resp.Val, resp.Err = v, errStr(err)
		}
		if len(resp.IRQs) > maxIRQs {
			resp.IRQs = nil
			resp.Err = fmt.Sprintf("hwstub: more than %d interrupts in one response", maxIRQs)
		}
		buf = appendResp(buf[:0], resp)
		if err := c.SendRaw(wire.FrameHW, buf); err != nil {
			return
		}
	}
}

// Close shuts the server down.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// RemoteDevice is a Device backed by a hardware server across the
// network. It is safe for use by one adapter at a time.
type RemoteDevice struct {
	mu  sync.Mutex
	c   *wire.Conn
	buf []byte // request encoding, recycled across calls
}

// Dial connects to a hardware server.
func Dial(addr string) (*RemoteDevice, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteDevice{c: c}, nil
}

// Close releases the connection.
func (r *RemoteDevice) Close() error { return r.c.Close() }

// call makes one request and waits for its response. A response out of
// protocol closes the connection: nothing after it can be trusted to
// answer the request it follows.
func (r *RemoteDevice) call(req hwReq) (hwResp, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = appendReq(r.buf[:0], req)
	if err := r.c.SendRaw(wire.FrameHW, r.buf); err != nil {
		return hwResp{}, err
	}
	kind, payload, err := r.c.RecvFrame()
	if err != nil {
		return hwResp{}, err
	}
	resp, err := decodeResp(kind, payload, req.Op)
	if err != nil {
		r.c.Close()
		return hwResp{}, err
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// SetTime implements Device.
func (r *RemoteDevice) SetTime(t vtime.Time) error {
	_, err := r.call(hwReq{Op: opSetTime, Time: t})
	return err
}

// ReadTime implements Device.
func (r *RemoteDevice) ReadTime() (vtime.Time, error) {
	resp, err := r.call(hwReq{Op: opReadTime})
	return resp.Time, err
}

// RunFor implements Device.
func (r *RemoteDevice) RunFor(d vtime.Duration) ([]Interrupt, error) {
	resp, err := r.call(hwReq{Op: opRunFor, Dur: d})
	return resp.IRQs, err
}

// Stall implements Device.
func (r *RemoteDevice) Stall() error {
	_, err := r.call(hwReq{Op: opStall})
	return err
}

// Pending implements Device.
func (r *RemoteDevice) Pending() ([]Interrupt, error) {
	resp, err := r.call(hwReq{Op: opPending})
	return resp.IRQs, err
}

// WriteReg implements Device.
func (r *RemoteDevice) WriteReg(addr, v uint32) error {
	_, err := r.call(hwReq{Op: opWrite, Addr: addr, Val: v})
	return err
}

// ReadReg implements Device.
func (r *RemoteDevice) ReadReg(addr uint32) (uint32, error) {
	resp, err := r.call(hwReq{Op: opRead, Addr: addr})
	return resp.Val, err
}

var _ Device = (*RemoteDevice)(nil)
