package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// digestSeeds are the trace seeds whose full-scale tables are locked by
// testdata/digests_full.txt.
var digestSeeds = []int64{1, 2, 7}

const digestFile = "digests_full.txt"

// fullDigests runs every registered experiment at full scale (2000 frames)
// for each digest seed and returns "seed name sha256" lines in seed, then
// Names, order.
func fullDigests(t *testing.T) []string {
	registry := All()
	var lines []string
	for _, seed := range digestSeeds {
		for _, name := range Names() {
			tab, err := registry[name](Config{Frames: 2000, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			sum := sha256.Sum256([]byte(tab.CSV()))
			lines = append(lines, fmt.Sprintf("%d %s %s", seed, name, hex.EncodeToString(sum[:])))
		}
	}
	return lines
}

// TestFullScaleDigests locks the SHA-256 of every runner's full-scale CSV,
// the tables the paper reproduction reports. The quick-scale goldens lock
// readable output; this locks the real thing, bit for bit.
//
// Regenerate after an intentional output change with:
//
//	go test ./internal/experiment -run TestFullScaleDigests -update
func TestFullScaleDigests(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every experiment at full scale for three seeds")
	}
	got := fullDigests(t)
	path := filepath.Join("testdata", digestFile)
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing digest file (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the registry yields %d", path, len(want), len(got))
	}
	for _, line := range got {
		fields := strings.Fields(line)
		key := fields[0] + " " + fields[1]
		if w, ok := want[key]; !ok {
			t.Errorf("seed %s, %s: no locked digest", fields[0], fields[1])
		} else if w != fields[2] {
			t.Errorf("seed %s, %s: digest %s, locked %s", fields[0], fields[1], fields[2], w)
		}
	}
}
