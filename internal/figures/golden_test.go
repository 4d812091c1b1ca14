package figures

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record the pinned figure texts under testdata/")

// TestFigureGolden pins the text of every figure in the registry at smallOpts
// (the MPL sweep at MPLs 1 and 4) in testdata/figure_<key>.txt: every number
// a report prints is simulated, so a change that moves one shows up as a
// diff here. A change that means to move one re-records them all with
//
//	go test ./internal/figures -run TestFigureGolden -update
//
// and says why in CHANGES.md. Each report's metrics must also be usable as
// benchmark metrics: finite, and named without whitespace.
func TestFigureGolden(t *testing.T) {
	for _, fig := range Figures {
		t.Run(fig.Key, func(t *testing.T) {
			rep := report[Report](t, fig.Key)
			metrics := rep.Metrics()
			if len(metrics) == 0 {
				t.Error("no metrics")
			}
			for name, v := range metrics {
				if name == "" || strings.ContainsAny(name, " \t\n") || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %q = %v", name, v)
				}
			}
			got := []byte(rep.String())
			path := filepath.Join("testdata", "figure_"+fig.Key+".txt")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the golden file (-update re-records):\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
