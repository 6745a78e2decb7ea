package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"entangled/internal/fault"
	"entangled/internal/frame"
)

// ErrCorrupt is the sentinel wrapped by every corruption error; match
// with errors.Is. Replay stops cleanly at the last valid frame and
// reports the first bad byte's position — it never panics and never
// applies a partial frame.
var ErrCorrupt = errors.New("persist: corrupt log")

// CorruptError reports where a log stopped being decodable.
type CorruptError struct {
	// Path is the offending file ("" when replaying a bare reader).
	Path string
	// Offset is the start of the first undecodable frame: every byte
	// before it parsed and checksummed cleanly.
	Offset int64
	// Reason says what failed: torn header, torn payload, implausible
	// length, or CRC mismatch.
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("persist: corrupt log at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("persist: %s: corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) true for every corruption error.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// ReplayFrames decodes frames from r in order, calling fn on each
// payload (valid only for the duration of the call). It returns the
// number of frames delivered and the offset just past the last valid
// frame. A clean end-of-log returns err == nil; anything undecodable —
// torn header, torn payload, implausible length, CRC mismatch — returns
// a *CorruptError positioned at the first bad frame, with every earlier
// frame already delivered. An error from fn aborts the replay and is
// returned as-is.
func ReplayFrames(r io.Reader, fn func(payload []byte) error) (frames int, valid int64, err error) {
	var payload []byte
	for {
		payload, err = frame.Read(r, payload)
		if err == io.EOF {
			return frames, valid, nil
		}
		if fe, bad := err.(*frame.Error); bad {
			return frames, valid, &CorruptError{Offset: valid, Reason: fe.Error()}
		}
		if err != nil {
			return frames, valid, err
		}
		if err := fn(payload); err != nil {
			return frames, valid, err
		}
		frames++
		valid += frame.HeaderSize + int64(len(payload))
	}
}

// replayFile replays a log file from disk, annotating corruption with
// the path. Missing files replay as empty logs.
func replayFile(fsys fault.FS, path string, fn func(payload []byte) error) (frames int, valid int64, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	frames, valid, err = ReplayFrames(bufio.NewReaderSize(f, 64<<10), fn)
	var ce *CorruptError
	if errors.As(err, &ce) {
		ce.Path = path
	}
	return frames, valid, err
}
