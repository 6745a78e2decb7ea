package persist

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"entangled/internal/frame"
)

func framesOf(payloads ...string) []byte {
	var buf []byte
	for _, p := range payloads {
		buf = frame.Append(buf, []byte(p))
	}
	return buf
}

func collect(t *testing.T, data []byte) ([]string, int64, error) {
	t.Helper()
	var got []string
	n, valid, err := ReplayFrames(bytes.NewReader(data), func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if n != len(got) {
		t.Fatalf("frame count %d but %d payloads delivered", n, len(got))
	}
	return got, valid, err
}

func TestReplayFramesRoundTrip(t *testing.T) {
	data := framesOf("one", "two", `{"k":"insert","rel":"T","t":["a"]}`)
	got, valid, err := collect(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "one" || got[2] != `{"k":"insert","rel":"T","t":["a"]}` {
		t.Fatalf("bad payloads %q", got)
	}
	if valid != int64(len(data)) {
		t.Fatalf("valid offset %d, want %d", valid, len(data))
	}
}

func TestReplayFramesTornTail(t *testing.T) {
	whole := framesOf("alpha", "beta")
	prefix := framesOf("alpha")
	// Cut at every byte boundary inside the second frame: replay must
	// deliver exactly the first frame and report the cut as corruption
	// at the second frame's start.
	for cut := len(prefix) + 1; cut < len(whole); cut++ {
		got, valid, err := collect(t, whole[:cut])
		if err == nil {
			t.Fatalf("cut=%d: torn tail replayed cleanly", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: error %v is not ErrCorrupt", cut, err)
		}
		if len(got) != 1 || got[0] != "alpha" {
			t.Fatalf("cut=%d: delivered %q", cut, got)
		}
		if valid != int64(len(prefix)) {
			t.Fatalf("cut=%d: valid offset %d, want %d", cut, valid, len(prefix))
		}
	}
}

func TestReplayFramesBitFlips(t *testing.T) {
	clean := framesOf("alpha", "beta", "gamma")
	for bit := 0; bit < len(clean)*8; bit++ {
		data := append([]byte(nil), clean...)
		data[bit/8] ^= 1 << (bit % 8)
		got, valid, err := collect(t, data)
		if err == nil {
			t.Fatalf("bit %d: flip replayed cleanly (payloads %q)", bit, got)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit %d: error %v is not ErrCorrupt", bit, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("bit %d: error %T is not *CorruptError", bit, err)
		}
		// Every frame before the flipped one must have been delivered,
		// none after it, and the valid offset must be a frame boundary
		// at or before the flipped byte.
		if valid > int64(bit/8) {
			t.Fatalf("bit %d: valid offset %d is past the flipped byte", bit, valid)
		}
		want := []string{"alpha", "beta", "gamma"}[:len(got)]
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("bit %d: delivered %q", bit, got)
			}
		}
	}
}

func TestReplayFramesImplausibleLength(t *testing.T) {
	data := framesOf("x")
	data[2] = 0xff // length byte: frame now claims >16MiB
	data[3] = 0xff
	_, _, err := collect(t, data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausible length: %v", err)
	}
}

func TestReplayFramesCallbackError(t *testing.T) {
	boom := fmt.Errorf("boom")
	n, _, err := ReplayFrames(bytes.NewReader(framesOf("a", "b")), func(p []byte) error {
		if string(p) == "b" {
			return boom
		}
		return nil
	})
	if err != boom || n != 1 {
		t.Fatalf("callback error: n=%d err=%v", n, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways,
		"":       SyncAlways,
		"never":  SyncNever,
		"150ms":  SyncEvery(150 * time.Millisecond),
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
		if back, err := ParseSyncPolicy(got.String()); err != nil || back != got {
			t.Fatalf("String round trip of %q: %v, %v", in, back, err)
		}
	}
	for _, bad := range []string{"sometimes", "-5ms", "0s"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Fatalf("ParseSyncPolicy(%q) accepted", bad)
		}
	}
}
