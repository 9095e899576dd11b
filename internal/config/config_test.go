package config

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/sim"
)

func TestBarcelonaDeployment(t *testing.T) {
	d := Barcelona()
	if err := d.Validate(); err != nil {
		t.Fatalf("Barcelona deployment invalid: %v", err)
	}
	topo, err := d.Topology()
	if err != nil {
		t.Fatal(err)
	}
	f1, f2, _ := topo.Counts()
	if f1 != 73 || f2 != 10 {
		t.Errorf("topology = %d/%d", f1, f2)
	}
}

func TestOptionsMapping(t *testing.T) {
	d := Barcelona()
	clock := sim.NewVirtualClock(time.Unix(0, 0))
	opts, err := d.Options(clock)
	if err != nil {
		t.Fatal(err)
	}
	if opts.City != "Barcelona" || !opts.Dedup || !opts.Quality {
		t.Errorf("opts = %+v", opts)
	}
	if opts.Codec != aggregate.CodecZip {
		t.Errorf("codec = %v", opts.Codec)
	}
	if opts.Fog1FlushInterval != 15*time.Minute || opts.Fog2FlushInterval != time.Hour {
		t.Errorf("flush intervals = %v / %v", opts.Fog1FlushInterval, opts.Fog2FlushInterval)
	}
	if opts.Fog1Retention != time.Hour || opts.Fog2Retention != 24*time.Hour {
		t.Errorf("retentions = %v / %v", opts.Fog1Retention, opts.Fog2Retention)
	}
}

func TestElasticOwnershipMapping(t *testing.T) {
	d, err := Parse([]byte(`{
		"city": "x",
		"districts": [{"name": "a", "sections": 3}],
		"elasticOwnership": true,
		"virtualNodes": 64
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.ElasticOwnership || opts.VirtualNodes != 64 {
		t.Errorf("elastic mapping = %v / %d", opts.ElasticOwnership, opts.VirtualNodes)
	}
	// Default stays off.
	if opts, err := Barcelona().Options(sim.WallClock{}); err != nil || opts.ElasticOwnership {
		t.Errorf("Barcelona should not be elastic by default (err %v)", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.json")
	want := Barcelona()
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.City != want.City || len(got.Districts) != len(want.Districts) ||
		got.Codec != want.Codec || got.Fog1FlushSeconds != want.Fog1FlushSeconds {
		t.Errorf("round trip = %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{nope`,
		"empty city":      `{"districts":[{"name":"a","sections":1}]}`,
		"no districts":    `{"city":"x"}`,
		"unnamed":         `{"city":"x","districts":[{"sections":1}]}`,
		"zero sections":   `{"city":"x","districts":[{"name":"a","sections":0}]}`,
		"bad codec":       `{"city":"x","codec":"lzma","districts":[{"name":"a","sections":1}]}`,
		"negative":        `{"city":"x","fog1FlushSeconds":-1,"districts":[{"name":"a","sections":1}]}`,
		"negative vnodes": `{"city":"x","elasticOwnership":true,"virtualNodes":-1,"districts":[{"name":"a","sections":1}]}`,
		"vnodes no ring":  `{"city":"x","virtualNodes":64,"districts":[{"name":"a","sections":1}]}`,
		"negative bound":  `{"city":"x","maxPendingReadings":-1,"districts":[{"name":"a","sections":1}]}`,
	}
	for name, data := range cases {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDefaultCodecIsZip(t *testing.T) {
	d, err := Parse([]byte(`{"city":"x","districts":[{"name":"a","sections":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Codec != aggregate.CodecZip {
		t.Errorf("default codec = %v, want zip", opts.Codec)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("expected error")
	}
}

func TestSaveInvalidDeployment(t *testing.T) {
	if err := (Deployment{}).Save(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Error("expected error")
	}
}

func TestSavedDocumentIsReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.json")
	if err := Barcelona().Save(path); err != nil {
		t.Fatal(err)
	}
	d, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(d.Districts))
	for _, ds := range d.Districts {
		names = append(names, ds.Name)
	}
	if !strings.Contains(strings.Join(names, ","), "Nou Barris") {
		t.Errorf("districts = %v", names)
	}
}

func TestPerCategoryFlushPolicy(t *testing.T) {
	d, err := Parse([]byte(`{
		"city": "x",
		"districts": [{"name": "a", "sections": 1}],
		"fog1FlushByCategorySeconds": {"urban": 300, "energy": 900}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Fog1FlushByCategory[model.CategoryUrban]; got != 5*time.Minute {
		t.Errorf("urban flush = %v, want 5m", got)
	}
	if got := opts.Fog1FlushByCategory[model.CategoryEnergy]; got != 15*time.Minute {
		t.Errorf("energy flush = %v, want 15m", got)
	}

	// Invalid policies rejected.
	bad := []string{
		`{"city":"x","districts":[{"name":"a","sections":1}],"fog1FlushByCategorySeconds":{"plasma":60}}`,
		`{"city":"x","districts":[{"name":"a","sections":1}],"fog1FlushByCategorySeconds":{"urban":0}}`,
	}
	for i, data := range bad {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
