package client

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines its tests started outlive
// them: after the run the count must return to what it was before within
// 5 s, or the run fails printing the stacks of every goroutine.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0 && runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutines: %d left over after the tests, %d before\n%s\n", runtime.NumGoroutine(), before, buf)
			code = 1
		}
	}
	os.Exit(code)
}
