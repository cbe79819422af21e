package gocured_test

// Corpus-wide golden digest of everything Compile reports: the cured IR
// dump, the stats, the cast table, the diagnostics and every blame chain,
// for each corpus program and examples/explain/wild.c, with and without
// ForceSplitAll. Inference changes that must not change results (a faster
// constraint generator, a different traversal) are checked against it.
// Rewrite it after an intended change with
//
//	go test -run TestGoldenDigest -update .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gocured"
	"gocured/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

const digestPath = "testdata/golden_digest.txt"

// digestSource is one program the golden digest covers.
type digestSource struct {
	name, src string
	opts      gocured.Options
}

func digestSources(t *testing.T) []digestSource {
	t.Helper()
	var out []digestSource
	for _, p := range corpus.All() {
		out = append(out, digestSource{p.Name + ".c", p.Source, gocured.Options{TrustBadCasts: p.TrustBadCasts}})
	}
	wild, err := os.ReadFile(filepath.Join("examples", "explain", "wild.c"))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, digestSource{"wild.c", string(wild), gocured.Options{}})
}

// compileDigest compiles src and hashes its reported analysis.
func compileDigest(t *testing.T, s digestSource) string {
	t.Helper()
	p, err := gocured.Compile(s.name, s.src, s.opts)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	var b bytes.Buffer
	b.WriteString("== cured\n")
	p.DumpCured(&b)
	fmt.Fprintf(&b, "== stats\n%+v\n== casts\n", p.Stats())
	for _, c := range p.Casts() {
		fmt.Fprintf(&b, "%+v\n", c)
	}
	b.WriteString("== diagnostics\n")
	for _, d := range p.Diagnostics() {
		b.WriteString(d + "\n")
	}
	b.WriteString("== explain\n")
	for _, ch := range p.ExplainKind("") {
		b.WriteString(ch + "\n")
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigest compares each program's digest, under both split
// settings, with the committed one.
func TestGoldenDigest(t *testing.T) {
	var got strings.Builder
	for _, s := range digestSources(t) {
		for _, split := range []bool{false, true} {
			s := s
			s.opts.ForceSplitAll = split
			fmt.Fprintf(&got, "%s split=%v %s\n", s.name, split, compileDigest(t, s))
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("digest has %d lines, golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("digest changed:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}

// TestSplitWarningsDeterministic compiles the WILD example under
// ForceSplitAll repeatedly: the SPLIT-conflict warnings (which occurrence
// each names, and how many fire) must not depend on map iteration order.
func TestSplitWarningsDeterministic(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("examples", "explain", "wild.c"))
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for i := 0; i < 20; i++ {
		p, err := gocured.Compile("wild.c", string(src), gocured.Options{ForceSplitAll: true})
		if err != nil {
			t.Fatal(err)
		}
		d := p.Diagnostics()
		if i == 0 {
			first = d
			continue
		}
		if !reflect.DeepEqual(d, first) {
			t.Fatalf("compile %d diagnostics differ:\n got %q\nwant %q", i, d, first)
		}
	}
}
