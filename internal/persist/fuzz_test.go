package persist

import (
	"bytes"
	"errors"
	"testing"

	"entangled/internal/frame"
)

// FuzzWALReplay throws arbitrary bytes at the frame decoder and checks
// the recovery contract on every input: ReplayFrames never panics,
// either succeeds or fails with the typed *CorruptError, reports a
// valid-prefix offset that is consistent (within bounds, covers every
// delivered frame, and replaying exactly that prefix succeeds and
// yields the same frames — no silent partial state), and a frame that
// reads as a session frame splits or fails without a panic.
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: empty log, well-formed logs, and the corruption
	// shapes the unit tests cover (torn header, torn payload, bit flip,
	// implausible length).
	f.Add([]byte{})
	var good []byte
	for _, p := range [][]byte{[]byte(`{"k":"c"}`), []byte(`{"k":"i","t":["a","b"]}`), {}} {
		good = frame.Append(good, p)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:5])
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	huge := bytes.Clone(good)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	f.Add(huge)
	// A log with every session frame kind beside a mutation, torn and
	// flipped, and a session frame whose name overruns it.
	var mixed []byte
	for _, p := range [][]byte{
		sessionPayload(nil, tagCreate, "room/1", parkByte(true)),
		[]byte(`{"k":"c"}`),
		sessionPayload(nil, tagEvent, "room/1", []byte(`{"kind":"leave","id":"a"}`)),
		sessionPayload(nil, tagDrop, "room/1", nil),
	} {
		mixed = frame.Append(mixed, p)
	}
	f.Add(mixed)
	f.Add(mixed[:len(mixed)-4])
	flippedMixed := bytes.Clone(mixed)
	flippedMixed[frame.HeaderSize+1] ^= 0x40
	f.Add(flippedMixed)
	f.Add(frame.Append(nil, []byte{tagEvent, 0x7f, 'x'}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		n, valid, err := ReplayFrames(bytes.NewReader(data), func(p []byte) error {
			frames = append(frames, bytes.Clone(p))
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("non-corruption error from raw bytes: %v", err)
		}
		if n != len(frames) {
			t.Fatalf("reported %d frames, delivered %d", n, len(frames))
		}
		for _, p := range frames {
			if kindOf(p) == kindSession {
				parseSession(p)
			}
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of bounds for %d bytes", valid, len(data))
		}
		if err == nil && valid != int64(len(data)) {
			t.Fatalf("clean replay of %d bytes but valid prefix %d", len(data), valid)
		}
		// The declared valid prefix must itself replay cleanly to the
		// identical frame sequence: truncating there loses nothing that
		// was delivered and resurrects nothing that was not.
		var again [][]byte
		n2, valid2, err2 := ReplayFrames(bytes.NewReader(data[:valid]), func(p []byte) error {
			again = append(again, bytes.Clone(p))
			return nil
		})
		if err2 != nil {
			t.Fatalf("replay of declared-valid prefix failed: %v", err2)
		}
		if n2 != n || valid2 != valid {
			t.Fatalf("prefix replay: %d frames / %d bytes, want %d / %d", n2, valid2, n, valid)
		}
		for i := range frames {
			if !bytes.Equal(frames[i], again[i]) {
				t.Fatalf("frame %d differs between full and prefix replay", i)
			}
		}
	})
}
