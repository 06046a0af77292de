// Package baseline provides the non-simulated reference load the
// paper compares against: it timed loading the same page with Sun's
// HotJava browser "as a rough reference for estimating simulation
// overhead". Here the reference is a direct fetch of the identical
// synthetic page over a real loopback TCP connection, followed by the
// same parse and image-scan work a native browser would do — no
// co-simulation kernel anywhere on the path.
package baseline

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/wubbleu"
)

// server is a minimal page server: one request line (the URL), one
// length-prefixed body.
type server struct {
	store *wubbleu.Store
	ln    net.Listener
	wg    sync.WaitGroup
}

// Serve starts the reference server and returns it, for its Close,
// and its address.
func Serve(store *wubbleu.Store, addr string) (*server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("baseline: listen: %w", err)
	}
	s := &server{store: store, ln: ln}
	s.wg.Add(1)
	go s.loop()
	return s, ln.Addr().String(), nil
}

func (s *server) loop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer c.Close()
			r := bufio.NewReader(c)
			url, err := r.ReadString('\n')
			if err != nil {
				return
			}
			page := s.store.Get(strings.TrimSpace(url))
			fmt.Fprintf(c, "%d\n", len(page))
			c.Write(page)
		}()
	}
}

// Close stops the server.
func (s *server) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// result is one reference load.
type result struct {
	Bytes   int
	Images  int
	Elapsed time.Duration
}

// Load performs one direct page load against the reference server:
// fetch, parse, and a byte-scan of each image standing in for decode
// work. It returns the wall-clock duration — the paper's 0.54 s
// HotJava row.
func Load(addr, url string) (result, error) {
	start := time.Now()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return result{}, fmt.Errorf("baseline: dial: %w", err)
	}
	defer c.Close()
	if _, err := fmt.Fprintf(c, "%s\n", url); err != nil {
		return result{}, err
	}
	r := bufio.NewReader(c)
	var n int
	if _, err := fmt.Fscanf(r, "%d\n", &n); err != nil {
		return result{}, fmt.Errorf("baseline: bad header: %w", err)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return result{}, fmt.Errorf("baseline: body: %w", err)
	}
	page, err := wubbleu.ParsePage(body)
	if err != nil {
		return result{}, err
	}
	// Native "decode": touch every image byte.
	var sink byte
	for _, img := range page.Images {
		for _, b := range img {
			sink ^= b
		}
	}
	_ = sink
	return result{Bytes: n, Images: len(page.Images), Elapsed: time.Since(start)}, nil
}
