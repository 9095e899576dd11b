package sensor

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"

	"f2c/internal/model"
)

// The wire format is a compact Sentilo-like text encoding:
//
//	#f2c;<nodeID>;<type>;<category>;<collectedUnixNano>;<count>
//	<sensorID>;<unixNano>;<value>;<unit>;<lat>;<lon>
//	...
//
// A text format is deliberate: the paper compresses observation
// payloads with Zip at fog layer 1 and reports a ~78% size reduction,
// which only makes sense for a redundant textual encoding.
//
// Encoding is append-based (AppendBatch) and decoding is an in-place
// index parser, so the seal/open path allocates nothing beyond the
// decoded readings themselves: batch sealing is the hottest CPU path
// in the hierarchy and runs from many concurrent flush workers.
//
// The numeric fields have exact fast paths for the grammar the
// encoder itself emits; any other input goes to the strconv call each
// fast path replaces, so output bytes, accepted inputs, decoded values
// and error texts are all strconv's:
//
//   - lat/lon are written as fixed-point -?d+.ddddd by appendCoord
//     when |x| < 1e4 and x·1e5 is not within 1e-6 of a rounding tie.
//   - value, lat and lon are read as -?d+(.d+)? with at most 15
//     digits by parseFloat (Clinger's exact fast path).
//   - timestamps and the header time are read as -?d{1,19} within
//     int64 range by parseInt.

const headerMagic = "#f2c"

// AppendBatch appends the wire encoding of b to dst and returns the
// extended slice. Output is byte-identical to EncodeBatch.
func AppendBatch(dst []byte, b *model.Batch) []byte {
	dst = append(dst, headerMagic...)
	dst = append(dst, ';')
	dst = append(dst, b.NodeID...)
	dst = append(dst, ';')
	dst = append(dst, b.TypeName...)
	dst = append(dst, ';')
	dst = append(dst, b.Category.String()...)
	dst = append(dst, ';')
	dst = strconv.AppendInt(dst, b.Collected.UnixNano(), 10)
	dst = append(dst, ';')
	dst = strconv.AppendInt(dst, int64(len(b.Readings)), 10)
	dst = append(dst, '\n')
	for i := range b.Readings {
		r := &b.Readings[i]
		dst = append(dst, r.SensorID...)
		dst = append(dst, ';')
		dst = strconv.AppendInt(dst, r.Time.UnixNano(), 10)
		dst = append(dst, ';')
		dst = strconv.AppendFloat(dst, r.Value, 'f', -1, 64)
		dst = append(dst, ';')
		dst = append(dst, r.Unit...)
		dst = append(dst, ';')
		dst = appendCoord(dst, r.Location.Lat)
		dst = append(dst, ';')
		dst = appendCoord(dst, r.Location.Lon)
		dst = append(dst, '\n')
	}
	return dst
}

// appendCoord appends x exactly as strconv.AppendFloat(dst, x, 'f', 5,
// 64) does, without strconv's multiprecision path. For |x| < 1e4 the
// product y = |x|·1e5 is below 1e9, so its rounding error is at most
// half an ulp, ~6e-8: whenever frac(y) is further than 1e-6 from 0.5
// the round-to-nearest decision on y is the decision on the exact
// decimal value of x. Near-ties (including exact ones, which strconv
// rounds half-to-even), non-finite values and |x| ≥ 1e4 fall back.
func appendCoord(dst []byte, x float64) []byte {
	ax := math.Abs(x)
	if !(ax < 1e4) { // also NaN
		return strconv.AppendFloat(dst, x, 'f', 5, 64)
	}
	y := ax * 1e5
	n := uint64(y)
	switch f := y - float64(n); {
	case f > 0.5+1e-6:
		n++
	case f >= 0.5-1e-6:
		return strconv.AppendFloat(dst, x, 'f', 5, 64)
	}
	if math.Signbit(x) {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, n/100000, 10)
	frac := n % 100000
	return append(dst, '.',
		byte('0'+frac/10000), byte('0'+frac/1000%10), byte('0'+frac/100%10),
		byte('0'+frac/10%10), byte('0'+frac%10))
}

// EncodeBatch renders a batch in the wire format as a fresh slice.
func EncodeBatch(b *model.Batch) []byte {
	return AppendBatch(make([]byte, 0, 64+len(b.Readings)*48), b)
}

// splitFields slices line into exactly want ';'-separated fields
// without allocating.
func splitFields(fields [][]byte, line []byte, want int) ([][]byte, bool) {
	fields = fields[:0]
	for len(fields) < want-1 {
		i := bytes.IndexByte(line, ';')
		if i < 0 {
			return fields, false
		}
		fields = append(fields, line[:i])
		line = line[i+1:]
	}
	if bytes.IndexByte(line, ';') >= 0 {
		return fields, false
	}
	return append(fields, line), true
}

// DecodeBatch parses the wire format produced by EncodeBatch. Unlike
// the former bufio.Scanner implementation it walks the payload by
// index — no per-line string, no strings.Split, and no upper bound on
// line or payload length.
func DecodeBatch(data []byte) (*model.Batch, error) {
	rest := data
	line, rest, ok := nextLine(rest)
	if !ok {
		return nil, fmt.Errorf("decode batch: empty payload")
	}
	var fieldArr [6][]byte
	fields, ok := splitFields(fieldArr[:0], line, 6)
	if !ok || string(fields[0]) != headerMagic {
		return nil, fmt.Errorf("decode batch: malformed header %q", line)
	}
	cat, err := model.ParseCategory(string(fields[3]))
	if err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	collected, err := parseInt(fields[4])
	if err != nil {
		return nil, fmt.Errorf("decode batch: collected time: %w", err)
	}
	count, err := strconv.Atoi(string(fields[5]))
	if err != nil || count < 0 {
		return nil, fmt.Errorf("decode batch: bad count %q", fields[5])
	}
	// A lying header count must not pre-allocate unboundedly: each
	// reading line needs at least 12 payload bytes (6 fields, 5
	// separators, newline), and a Reading is ~100 in-memory bytes, so
	// bounding by len(data) alone would still allow ~100x
	// amplification.
	capHint := count
	if maxLines := len(data)/12 + 1; capHint > maxLines {
		capHint = maxLines
	}
	b := &model.Batch{
		NodeID:    string(fields[1]),
		TypeName:  string(fields[2]),
		Category:  cat,
		Collected: unixNano(collected),
		Readings:  make([]model.Reading, 0, capHint),
	}
	// Sensor IDs repeat across collection rounds and units are shared
	// by the whole batch: interning collapses their string
	// allocations to one per distinct value. Pre-sizing from the
	// header count keeps the map from reallocating mid-decode.
	internSize := count + 1
	if internSize > 4096 {
		internSize = 4096
	}
	intern := make(map[string]string, internSize)
	for {
		line, rest, ok = nextLine(rest)
		if !ok {
			break
		}
		if len(line) == 0 {
			continue
		}
		r, err := decodeLine(fields, line, b.TypeName, cat, intern)
		if err != nil {
			return nil, fmt.Errorf("decode batch: line %d: %w", len(b.Readings)+2, err)
		}
		b.Readings = append(b.Readings, r)
	}
	if len(b.Readings) != count {
		return nil, fmt.Errorf("decode batch: header count %d != %d readings", count, len(b.Readings))
	}
	return b, nil
}

// nextLine returns the next line (without terminator) and the
// remaining data. A final unterminated line is returned as-is, and a
// trailing '\r' is dropped — the same framing bufio.ScanLines applied
// in the scanner-based decoder this replaces.
func nextLine(data []byte) (line, rest []byte, ok bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	} else {
		line, rest = data, nil
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest, true
}

func internString(intern map[string]string, b []byte) string {
	if s, ok := intern[string(b)]; ok { // no-alloc map lookup
		return s
	}
	s := string(b)
	intern[s] = s
	return s
}

func decodeLine(fields [][]byte, line []byte, typeName string, cat model.Category, intern map[string]string) (model.Reading, error) {
	parts, ok := splitFields(fields, line, 6)
	if !ok {
		n := bytes.Count(line, []byte{';'}) + 1
		return model.Reading{}, fmt.Errorf("want 6 fields, got %d", n)
	}
	ts, err := parseInt(parts[1])
	if err != nil {
		return model.Reading{}, fmt.Errorf("timestamp: %w", err)
	}
	val, err := parseFloat(parts[2])
	if err != nil {
		return model.Reading{}, fmt.Errorf("value: %w", err)
	}
	lat, err := parseFloat(parts[4])
	if err != nil {
		return model.Reading{}, fmt.Errorf("lat: %w", err)
	}
	lon, err := parseFloat(parts[5])
	if err != nil {
		return model.Reading{}, fmt.Errorf("lon: %w", err)
	}
	return model.Reading{
		SensorID: internString(intern, parts[0]),
		TypeName: typeName,
		Category: cat,
		Time:     unixNano(ts),
		Value:    val,
		Unit:     internString(intern, parts[3]),
		Location: model.GeoPoint{Lat: lat, Lon: lon},
	}, nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloat returns strconv.ParseFloat(string(b), 64). A decimal
// -?d+(.d+)? of at most 15 digits is parsed in place as m / 10^k:
// both operands are exact in a float64 and IEEE division rounds
// correctly, so the result is bit-identical to strconv's. Every other
// input (exponents, '+', "1.", ".5", inf/nan, longer mantissas, junk)
// goes to strconv itself, for its value and its error.
func parseFloat(b []byte) (float64, error) {
	i, neg := 0, len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	var m uint64
	digits, point, frac := 0, false, 0
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' && !point && digits > 0 {
			point = true
			continue
		}
		if c < '0' || c > '9' {
			return strconv.ParseFloat(string(b), 64)
		}
		m = m*10 + uint64(c-'0')
		digits++
		if point {
			frac++
		}
	}
	if digits == 0 || digits > 15 || (point && frac == 0) {
		return strconv.ParseFloat(string(b), 64)
	}
	f := float64(m) / pow10[frac]
	if neg {
		f = -f
	}
	return f, nil
}

// parseInt returns strconv.ParseInt(string(b), 10, 64). -?d{1,19}
// fits a uint64 (unix-nanosecond times since 2001 have 19 digits) and
// is parsed in place when it is in int64 range; anything else goes to
// strconv.
func parseInt(b []byte) (int64, error) {
	i, neg := 0, len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	if n := len(b) - i; n == 0 || n > 19 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var u uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case !neg && u <= math.MaxInt64:
		return int64(u), nil
	case neg && u <= 1<<63:
		return -int64(u), nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// FixedWireBytes returns the Table I payload accounting for n
// transactions of a sensor type: the paper charges exactly
// BytesPerTransaction per reading on the wire regardless of encoding.
func FixedWireBytes(st model.SensorType, n int) int64 {
	return int64(n) * int64(st.BytesPerTransaction)
}

func unixNano(ns int64) time.Time { return time.Unix(0, ns) }
