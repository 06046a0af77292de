package baseline

import (
	"testing"

	"repro/internal/wubbleu"
)

// defaultStore is a store serving the default page at the default URL.
func defaultStore(t *testing.T) *wubbleu.Store {
	t.Helper()
	page, err := wubbleu.GenPage(wubbleu.DefaultPageSize, wubbleu.DefaultImageCount)
	if err != nil {
		t.Fatal(err)
	}
	return wubbleu.NewStore(wubbleu.DefaultURL, page)
}

func TestLoad(t *testing.T) {
	srv, addr, err := Serve(defaultStore(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := Load(addr, wubbleu.DefaultURL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != wubbleu.DefaultPageSize {
		t.Fatalf("fetched %d bytes, want %d", res.Bytes, wubbleu.DefaultPageSize)
	}
	if res.Images != wubbleu.DefaultImageCount {
		t.Fatalf("images = %d", res.Images)
	}
	if res.Elapsed <= 0 {
		t.Fatal("non-positive elapsed time")
	}
}

func TestLoadMissingPageFails(t *testing.T) {
	srv, addr, err := Serve(defaultStore(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A missing page comes back as an empty body, which fails the
	// parse.
	if _, err := Load(addr, "http://nowhere/"); err == nil {
		t.Fatal("missing page parsed successfully")
	}
}

func TestLoadDialError(t *testing.T) {
	if _, err := Load("127.0.0.1:1", "x"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}
