package wubbleu

import "repro/internal/channel"

// Message types exchanged between the WubbleU modules. NetReq is the
// one that crosses a node boundary — Placement can only split "dma" and
// "radio", and everything else on those nets is a signal type — so it
// is the one that registers a layout with the channel codec.

// strokes is handwriting input from the UI to the recognizer.
type strokes struct {
	URL string // the text the strokes encode (recognition is modelled)
}

// urlReq is the recognized request from the recognizer to the
// browser control.
type urlReq struct {
	URL string
}

// cacheReq is a browser request to the cache module. A page is
// carried as the parts it arrived in (proto.ReceiveParts), never
// joined.
type cacheReq struct {
	Op    string // "get" or "put"
	Key   string
	Parts [][]byte
}

// cacheResp answers a "get".
type cacheResp struct {
	Key   string
	Hit   bool
	Parts [][]byte
}

// decodeReq asks the JPEG decoder to decode one image.
type decodeReq struct {
	ID   int
	Size int
}

// decodeResp announces a finished decode.
type decodeResp struct {
	ID int
}

// NetReq asks the network interface (the cellular ASIC) to fetch a
// URL.
type NetReq struct {
	URL string
}

// renderedMsg tells the UI a page finished rendering.
type renderedMsg struct {
	URL   string
	Bytes int
}

func init() {
	// The body is the URL's bytes; signal.Size still charges the link
	// model one byte for a NetReq, as for any non-signal value.
	channel.RegisterValue("wubbleu.NetReq",
		func(dst []byte, v NetReq) []byte { return append(dst, v.URL...) },
		func(body []byte) (NetReq, error) { return NetReq{URL: string(body)}, nil })
}
