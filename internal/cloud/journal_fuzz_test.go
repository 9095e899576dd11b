package cloud

import "testing"

// FuzzCloudSnapshotDecode proves the cloud's snapshot and journal
// record decoders never panic on arbitrary bytes — corrupt counts and
// truncated fields must fail with errors, not allocate or crash
// (CRC framing upstream makes this unlikely, not impossible).
func FuzzCloudSnapshotDecode(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{cloudJournalVersion}, []byte{1})
	// Huge origin/record/hop counts with no bytes behind them.
	f.Add([]byte{cloudJournalVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		[]byte{recExpire, 1, 2, 3})
	valid, err := encodeCloudSnapshot(nil, 7, map[string][]uint64{"fog2/d01": {1, 2}}, nil, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(valid, []byte{recPreserve2, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(valid, []byte{recPush, 0xF5, 1, 0xFF})

	f.Fuzz(func(t *testing.T, snap, rec []byte) {
		rs := &cloudRecovery{}
		_ = decodeCloudSnapshot(snap, rs)
		_ = rs.applyRecord(rec)
	})
}
