package sensor

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"f2c/internal/model"
)

func fuzzSeedBatch() *model.Batch {
	at := time.Unix(0, 1496275200000000000)
	return &model.Batch{
		NodeID: "fog1/d01-s01", TypeName: "temperature", Category: model.CategoryEnergy,
		Collected: at,
		Readings: []model.Reading{
			{SensorID: "a", TypeName: "temperature", Category: model.CategoryEnergy,
				Time: at, Value: 21.5, Unit: "C", Location: model.GeoPoint{Lat: 41.38, Lon: 2.17}},
			{SensorID: "b", TypeName: "temperature", Category: model.CategoryEnergy,
				Time: at.Add(time.Minute), Value: -3.25, Unit: "C"},
		},
	}
}

// FuzzBatchRoundTrip feeds arbitrary bytes to both wire decoders.
// Any input a decoder accepts must re-encode canonically: encoding
// the decoded batch and decoding it again must reproduce the same
// bytes (a fixed point), and neither decoder may panic on junk.
func FuzzBatchRoundTrip(f *testing.F) {
	seed := fuzzSeedBatch()
	f.Add(EncodeBatch(seed))
	f.Add(EncodeBatchColumnar(seed))
	empty := &model.Batch{NodeID: "n", TypeName: "t", Category: model.CategoryEnergy, Collected: time.Unix(0, 7)}
	f.Add(EncodeBatch(empty))
	f.Add(EncodeBatchColumnar(empty))
	f.Add([]byte("#f2c;n;t;energy;1;1\nx;2;3;u;4;5\n"))
	f.Add([]byte("#f2c;;;energy;;\n"))
	f.Add([]byte("F2CC\x01"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := DecodeBatch(data); err == nil {
			// Re-encoding canonicalizes: the second decode must succeed
			// and preserve every field (locations to the wire format's
			// 5-decimal precision).
			wire := EncodeBatch(b)
			b2, err := DecodeBatch(wire)
			if err != nil {
				t.Fatalf("text: re-decode of canonical encoding failed: %v", err)
			}
			if b2.NodeID != b.NodeID || b2.TypeName != b.TypeName || b2.Category != b.Category ||
				!b2.Collected.Equal(b.Collected) || len(b2.Readings) != len(b.Readings) {
				t.Fatalf("text: header changed across round trip: %+v vs %+v", b2, b)
			}
			for i := range b.Readings {
				w, r := &b.Readings[i], &b2.Readings[i]
				if r.SensorID != w.SensorID || !r.Time.Equal(w.Time) ||
					(r.Value != w.Value && !(r.Value != r.Value && w.Value != w.Value)) || // NaN-tolerant
					r.Unit != w.Unit {
					t.Fatalf("text: reading %d changed across round trip: %+v vs %+v", i, r, w)
				}
				if !approxGeo(r.Location.Lat, w.Location.Lat) || !approxGeo(r.Location.Lon, w.Location.Lon) {
					t.Fatalf("text: reading %d location drifted: %+v vs %+v", i, r.Location, w.Location)
				}
			}
		}
		if b, err := DecodeBatchColumnar(data); err == nil {
			wire := EncodeBatchColumnar(b)
			b2, err := DecodeBatchColumnar(wire)
			if err != nil {
				t.Fatalf("columnar: re-decode of canonical encoding failed: %v", err)
			}
			if wire2 := EncodeBatchColumnar(b2); !bytes.Equal(wire, wire2) {
				t.Fatalf("columnar: canonical encoding is not a fixed point (%d vs %d bytes)", len(wire), len(wire2))
			}
		}
	})
}

// approxGeo compares coordinates at the wire format's 5-decimal
// precision, tolerating the representable-double rounding either side
// of it. Non-finite values only need to survive as non-finite.
func approxGeo(got, want float64) bool {
	if got == want {
		return true
	}
	if got != got && want != want { // both NaN
		return true
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1.000001e-5*scale+1e-5
}

// FuzzDecodeBatch asserts the structured round trip: every encoded
// batch decodes back to equal contents, whatever the generator emits.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(int64(1), uint8(3), int64(1496275200000000000))
	f.Add(int64(99), uint8(40), int64(-5))
	f.Fuzz(func(t *testing.T, seed int64, sensors uint8, atNano int64) {
		st, err := model.TypeByName("traffic")
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(Config{
			Type: st, NodeID: "fuzz-node", Sensors: int(sensors)%64 + 1, Seed: seed, Redundancy: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		b := g.Next(time.Unix(0, atNano))
		got, err := DecodeBatch(EncodeBatch(b))
		if err != nil {
			t.Fatalf("decode of encoded batch: %v", err)
		}
		if got.NodeID != b.NodeID || got.TypeName != b.TypeName || got.Category != b.Category ||
			!got.Collected.Equal(b.Collected) || len(got.Readings) != len(b.Readings) {
			t.Fatalf("header mismatch: got %+v want %+v", got, b)
		}
		for i := range b.Readings {
			w, r := &b.Readings[i], &got.Readings[i]
			if r.SensorID != w.SensorID || !r.Time.Equal(w.Time) || r.Value != w.Value || r.Unit != w.Unit {
				t.Fatalf("reading %d: got %+v want %+v", i, r, w)
			}
		}
	})
}

// FuzzAppendCoord checks the fixed-point coordinate encoder against
// the strconv call it replaces on arbitrary float64 bit patterns: the
// wire bytes must be identical for every input, ties, -0, NaN and
// ±Inf included.
func FuzzAppendCoord(f *testing.F) {
	f.Add(math.Float64bits(41.38))
	f.Add(math.Float64bits(-2.17))
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		got := appendCoord([]byte("x;"), x)
		want := strconv.AppendFloat([]byte("x;"), x, 'f', 5, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendCoord(%v [%#x]) = %q, strconv = %q", x, bits, got, want)
		}
	})
}

// FuzzParseNumber checks the in-place decimal and integer parsers
// against strconv.ParseFloat and strconv.ParseInt: same value bits
// (so -0 stays -0), same error text.
func FuzzParseNumber(f *testing.F) {
	f.Add("21.5")
	f.Add("1496275200000000000")
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseFloat([]byte(s))
		want, werr := strconv.ParseFloat(s, 64)
		if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("parseFloat(%q) = %v [%#x], %v; strconv = %v [%#x], %v",
				s, got, math.Float64bits(got), err, want, math.Float64bits(want), werr)
		}
		gi, err := parseInt([]byte(s))
		wi, werr := strconv.ParseInt(s, 10, 64)
		if gi != wi || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("parseInt(%q) = %d, %v; strconv = %d, %v", s, gi, err, wi, werr)
		}
	})
}
