package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rexptree/internal/experiments"
)

// buildTool compiles this command into a temp dir and returns the
// binary path, so the smoke test exercises the real CLI surface: flag
// parsing, exit code and output format.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tool")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeFigure runs one small figure through the binary: its table
// must be the library's rendering, followed by the footer, and -csv
// must write a header and one row per (series, x) cell, in order.  The
// scale is the smallest at which figure 9's searches miss the buffer:
// Run never gives a tree fewer than 8 buffer pages, which hold the whole
// index up to scale 0.006, and a table of zeros would show nothing.
func TestSmokeFigure(t *testing.T) {
	bin := buildTool(t)
	csv := filepath.Join(t.TempDir(), "fig9.csv")
	out, err := exec.Command(bin, "-figure", "9", "-scale", "0.007", "-quiet", "-csv", csv).Output()
	if err != nil {
		t.Fatalf("rexpbench -figure 9: %v\n%s", err, out)
	}
	fig, err := experiments.RunFigure("9", 0.007, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, footer, ok := strings.Cut(string(out), "\n(scale 0.007, seed 1, ")
	if !ok || table != fig.Render() || !strings.HasSuffix(footer, ")\n\n") {
		t.Fatalf("output is not the rendered figure plus its footer:\n%s\nwant:\n%s", out, fig.Render())
	}

	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"figure,series,x,search_io,update_io,queue_io,index_pages,expired_frac,queries,updates,scale,seed"}
	searched := false
	for _, s := range fig.Series {
		for _, m := range s.Points {
			want = append(want, fmt.Sprintf("9,%q,%g,%.4f,%.4f,%.4f,%.2f,%.5f,%d,%d,0.007,1",
				s.Label, m.X, m.SearchIO, m.UpdateIO, m.QueueIO, m.IndexPages, m.ExpiredFrac, m.Queries, m.Updates))
			searched = searched || m.SearchIO > 0
		}
	}
	if !searched {
		t.Errorf("every search cell of figure 9 at scale 0.007 reads 0: the buffer holds the whole index\n%s", out)
	}
	if got := strings.TrimSuffix(string(raw), "\n"); got != strings.Join(want, "\n") {
		t.Errorf("CSV is not a header plus %d series x %d xs rows of the figure:\n%s\nwant:\n%s",
			len(fig.Series), len(fig.Xs), got, strings.Join(want, "\n"))
	}
}
