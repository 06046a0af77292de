package wubbleu

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime/metrics"
	"testing"
)

// cutPage splits data into views at the lengths cuts names, a zero
// making an empty part; the last part is what is left.
func cutPage(data, cuts []byte) [][]byte {
	var parts [][]byte
	for _, c := range cuts {
		n := min(int(c), len(data))
		parts = append(parts, data[:n:n])
		data = data[n:]
	}
	return append(parts, data)
}

// FuzzParsePage cuts arbitrary bytes into parts at arbitrary points.
// The parser must not panic; parsing the parts and parsing their join
// must agree, on the layout or on the error; a layout must account for
// every byte; and ParsePage, its one-part case, must slice the same
// layout. A header claiming 2^32-1 images or a 2^32-1-byte html must
// allocate nothing beyond what the input's bytes back.
func FuzzParsePage(f *testing.F) {
	for _, pg := range [][2]int{{28, 3}, {200, 3}, {2048, 2}} {
		data, err := GenPage(pg[0], pg[1])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, []byte{})
		f.Add(data, []byte{1, 3, 0, 7, 9, 200})
	}
	for _, bad := range badPages() {
		f.Add(bad.data, []byte{5, 0, 6})
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		parts := cutPage(data, cuts)
		got, err := parseLayout(parts)
		want, wantErr := parseLayout([][]byte{data})
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || !reflect.DeepEqual(got, want) {
			t.Fatalf("parts parse to %+v, %v; their join to %+v, %v", got, err, want, wantErr)
		}
		page, pageErr := ParsePage(data)
		if (pageErr == nil) != (err == nil) {
			t.Fatalf("ParsePage: %v, parseLayout: %v", pageErr, err)
		}
		if err == nil {
			n := 12 + got.html
			for _, sz := range got.images {
				n += 4 + sz
			}
			if n != len(data) || len(page.HTML) != got.html || len(page.Images) != len(got.images) {
				t.Fatalf("layout %+v covers %d of %d bytes; ParsePage sliced %d html bytes and %d images",
					got, n, len(data), len(page.HTML), len(page.Images))
			}
			for i, img := range page.Images {
				if len(img) != got.images[i] {
					t.Fatalf("ParsePage sliced image %d as %d bytes, the layout says %d", i, len(img), got.images[i])
				}
			}
		}
		// The html length and the image count claim 2^32-1, each in a
		// copy of the input, long enough to hold a header.
		var hostile [2][][]byte
		for i, field := range []int{4, 8} {
			h := make([]byte, max(len(data), 12))
			copy(h, data)
			binary.LittleEndian.PutUint32(h[0:], pageMagic)
			binary.LittleEndian.PutUint32(h[field:], 1<<32-1)
			hostile[i] = cutPage(h, cuts)
		}
		// The counter is process-wide, so whatever else the fuzz worker
		// allocates meanwhile is charged here too. That noise only adds
		// bytes, while an over-allocation shows in every reading: the
		// smallest of three is the parse's own.
		spent := uint64(math.MaxUint64)
		for range 3 {
			before := heapAllocs()
			for _, parts := range hostile {
				parseLayout(parts)
			}
			spent = min(spent, heapAllocs()-before)
		}
		// An image header is 4 bytes, so the image list holds at most
		// len/4 sizes of 8 bytes, at most doubled by its growth. The
		// slack covers the counter's granularity: small objects count
		// as their span is claimed.
		if limit := uint64(4*max(len(data), 12)) + 64<<10; spent > limit {
			t.Fatalf("headers claiming 2^32-1 allocated %d bytes parsing a %d-byte page, want <= %d", spent, len(data), limit)
		}
	})
}

// heapAllocs reads the bytes allocated so far without stopping the
// world, so the fuzzer can read it on every input.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
