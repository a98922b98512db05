package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtvp/internal/isa"
	"mtvp/internal/mem"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/image_digests.golden from the current builders")

const digestGolden = "testdata/image_digests.golden"

// imageDigest hashes a build's output: every page in address order (its
// page number, then its bytes), then the program's code base and every
// instruction. Two builds digest equal only if they allocate or reserve the
// same pages, fill them with the same bytes and assemble the same program.
func imageDigest(b Benchmark, seed uint64) string {
	return digest(b.Build(seed))
}

// digest is imageDigest of a program and an image already built.
func digest(prog *isa.Program, image *mem.Memory) string {
	h := sha256.New()
	var w [8]byte
	image.EachPage(func(addr uint64, page *[mem.PageSize]byte) {
		binary.LittleEndian.PutUint64(w[:], addr/mem.PageSize)
		h.Write(w[:])
		h.Write(page[:])
	})
	fmt.Fprintf(h, "code %d\n", prog.CodeBase)
	for _, in := range prog.Insts {
		fmt.Fprintf(h, "%d %d %d %d %d\n", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestImageDigests pins every stand-in's image and program, and
// ResidentMiss's, at seeds 1 to 3 against digests recorded from the
// per-word builders: a builder that writes its image another way must
// produce the same pages, bytes and instructions. Run with -update to
// re-record after a deliberate change to a workload.
func TestImageDigests(t *testing.T) {
	var lines []string
	for _, b := range append(All(), ResidentMiss) {
		for seed := uint64(1); seed <= 3; seed++ {
			lines = append(lines, fmt.Sprintf("%q %d %s", b.Name, seed, imageDigest(b, seed)))
		}
	}
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := goldenDigests(t)
	if len(want) != len(lines) {
		t.Fatalf("golden has %d digests, the builders make %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("digest changed:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}

// goldenDigests returns the lines of testdata/image_digests.golden: a
// quoted benchmark name, a seed and a digest each.
func goldenDigests(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
