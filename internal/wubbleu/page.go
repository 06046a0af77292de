// Package wubbleu implements the WubbleU application, the suggested
// benchmark for embedded system design tools the paper evaluates on:
// a hand-held Web browser — a hand-held unit plus a wireless
// connection to a dedicated server. The module set follows the
// paper's Fig. 5 communication flow graph (UI, handwriting
// recognition, browser control, HTML parser, JPEG decoder, cache,
// protocol stack / network interface, server), and the architecture
// builder follows Fig. 6: every process mapped onto the embedded CPU
// except the network interface, which lives on the cellular
// communication ASIC that transfers packets to the system through
// DMA — the chip that is the candidate for remote operation.
package wubbleu

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"weak"
)

// Page layout: a deterministic synthetic web page standing in for the
// 66 KB Pia home page ("approximately 66KB of data, including
// graphics"). The page is a header, an HTML body, and a sequence of
// embedded images:
//
//	[4B magic][4B htmlLen][4B imageCount] html... { [4B imgLen] img... }*
const pageMagic = 0x57754255 // "WuBU"

// DefaultPageSize matches the paper's page.
const DefaultPageSize = 66 * 1024

// DefaultImageCount is how many graphics the synthetic page embeds.
const DefaultImageCount = 4

// parsedPage is a parsed page.
type parsedPage struct {
	HTML   []byte
	Images [][]byte
}

// TotalBytes is the encoded size.
func (p *parsedPage) TotalBytes() int {
	n := 12 + len(p.HTML)
	for _, img := range p.Images {
		n += 4 + len(img)
	}
	return n
}

// GenPage deterministically generates a page of exactly total bytes
// with the given number of embedded images (graphics take roughly
// two thirds of the page, as on a graphics-heavy 1998 home page).
func GenPage(total, images int) ([]byte, error) {
	overhead := 12 + 4*images
	if total < overhead+images+1 {
		return nil, fmt.Errorf("wubbleu: page of %d bytes cannot hold %d images", total, images)
	}
	payload := total - overhead
	imgBytes := payload * 2 / 3
	htmlBytes := payload - imgBytes

	// The page is written in place: html and images go straight into
	// out, the only allocation proportional to the page.
	out := make([]byte, total)
	binary.LittleEndian.PutUint32(out[0:], pageMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(htmlBytes))
	binary.LittleEndian.PutUint32(out[8:], uint32(images))
	pos := 12
	// The html repeats one line: lay it down once, then double what is
	// written (a multiple of the line, so the pattern stays in phase).
	html := out[pos : pos+htmlBytes]
	for n := copy(html, "<p>the pia home page, rendered by wubbleu </p>"); n < len(html); {
		n += copy(html[n:], html[:n])
	}
	pos += htmlBytes
	rng := imageBytes{src: rand.NewSource(0x77754255)}
	rem := imgBytes
	for i := 0; i < images; i++ {
		sz := rem / (images - i)
		binary.LittleEndian.PutUint32(out[pos:], uint32(sz))
		pos += 4
		rng.read(out[pos : pos+sz])
		pos += sz
		rem -= sz
	}
	if pos != total {
		return nil, fmt.Errorf("wubbleu: generated %d bytes, want %d", pos, total)
	}
	return out, nil
}

// imageBytes is math/rand's Rand.Read byte stream — seven bytes of
// each Int63, low byte first, the unused rest carried to the next call
// — produced a word at a time: each Int63 is stored as eight bytes and
// the next one overwrites the eighth. The pages are pinned to those
// bytes (TestGenPageBytesPinned).
type imageBytes struct {
	src  rand.Source
	val  int64
	left int // bytes of val not yet handed out
}

func (r *imageBytes) read(p []byte) {
	for len(p) > 0 {
		if r.left == 0 && len(p) >= 8 {
			binary.LittleEndian.PutUint64(p, uint64(r.src.Int63()))
			p = p[7:]
			continue
		}
		if r.left == 0 {
			r.val, r.left = r.src.Int63(), 7
		}
		p[0] = byte(r.val)
		r.val >>= 8
		r.left--
		p = p[1:]
	}
}

// ParsePage decodes a page held in one slice: parseLayout's one-part
// case, with the html and images as views of data.
func ParsePage(data []byte) (*parsedPage, error) {
	l, err := parseLayout([][]byte{data})
	if err != nil {
		return nil, err
	}
	p := &parsedPage{HTML: data[12 : 12+l.html], Images: make([][]byte, 0, len(l.images))}
	pos := 12 + l.html
	for _, sz := range l.images {
		pos += 4
		p.Images = append(p.Images, data[pos:pos+sz])
		pos += sz
	}
	return p, nil
}

// layout is what the browser reads of a page: the html's length and
// each image's size, in page order.
type layout struct {
	html   int
	images []int
}

// parseLayout reads a page's layout from the concatenation of parts,
// without joining them. Every length in the page comes from the peer,
// so each is checked against the bytes left before it is believed, and
// the image list grows as images are found, never presized from the
// header's count: what parsing allocates is backed by the input's
// bytes.
func parseLayout(parts [][]byte) (layout, error) {
	r := pageReader{parts: parts, left: partsLen(parts)}
	if r.left < 12 {
		return layout{}, fmt.Errorf("wubbleu: page too short (%d bytes)", r.left)
	}
	if r.uint32() != pageMagic {
		return layout{}, fmt.Errorf("wubbleu: bad page magic")
	}
	html, images := r.uint32(), r.uint32()
	if !r.skip(html) {
		return layout{}, fmt.Errorf("wubbleu: truncated html")
	}
	l := layout{html: int(html)}
	for i := uint32(0); i < images; i++ {
		if r.left < 4 {
			return layout{}, fmt.Errorf("wubbleu: truncated image header %d", i)
		}
		sz := r.uint32()
		if !r.skip(sz) {
			return layout{}, fmt.Errorf("wubbleu: truncated image %d", i)
		}
		l.images = append(l.images, int(sz))
	}
	if r.left != 0 {
		return layout{}, fmt.Errorf("wubbleu: %d trailing bytes", r.left)
	}
	return l, nil
}

// partsLen is the length of the concatenation of parts.
func partsLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// pageReader reads the concatenation of parts in order, left bytes of
// it still unread.
type pageReader struct {
	parts [][]byte
	off   int // into parts[0]
	left  int
}

// uint32 reads a little-endian uint32; the caller has checked that
// four bytes are left.
func (r *pageReader) uint32() uint32 {
	var b [4]byte
	r.next(4, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// skip steps past n bytes, or reports false, without moving, when
// fewer are left.
func (r *pageReader) skip(n uint32) bool {
	if uint64(n) > uint64(r.left) {
		return false
	}
	r.next(int(n), nil)
	return true
}

// next steps past n bytes, at most left, copying them into dst as far
// as dst reaches.
func (r *pageReader) next(n int, dst []byte) {
	r.left -= n
	for n > 0 {
		for r.off == len(r.parts[0]) {
			r.parts, r.off = r.parts[1:], 0
		}
		k := min(n, len(r.parts[0])-r.off)
		dst = dst[copy(dst, r.parts[0][r.off:r.off+k]):]
		r.off += k
		n -= k
	}
}

// sharedPage holds a generated page for the servers serving it. A
// served page is immutable: every frame is a view of it that nothing
// writes. So one page serves every simulation that asks for the same
// (size, images), and each server holds its sharedPage for as long as
// it serves.
type sharedPage struct{ b []byte }

// pageMemo is the last page generated in this process. It points to
// the page weakly: it never keeps a page alive that no server holds.
var pageMemo struct {
	sync.Mutex
	total, images int
	page          weak.Pointer[sharedPage]
}

// servedPage returns GenPage(total, images), shared with any server
// still holding it; only a miss generates the page.
func servedPage(total, images int) (*sharedPage, error) {
	pageMemo.Lock()
	defer pageMemo.Unlock()
	if pageMemo.total == total && pageMemo.images == images {
		if p := pageMemo.page.Value(); p != nil {
			return p, nil
		}
	}
	b, err := GenPage(total, images)
	if err != nil {
		return nil, err
	}
	p := &sharedPage{b: b}
	pageMemo.total, pageMemo.images, pageMemo.page = total, images, weak.Make(p)
	return p, nil
}

// Store is the dedicated server's page store.
type Store struct {
	pages map[string][]byte
}

// NewStore creates a store serving page at url.
func NewStore(url string, page []byte) *Store {
	return &Store{pages: map[string][]byte{url: page}}
}

// DefaultURL is the page the experiment loads.
const DefaultURL = "http://www.cs.washington.edu/research/chinook/pia.html"

// Get fetches a page; nil when absent.
func (s *Store) Get(url string) []byte { return s.pages[url] }
