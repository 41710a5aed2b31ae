package dist

import (
	"fmt"
	"os"
	"testing"

	"codeletfft/internal/serve"
)

// TestMain holds the package's tests to the pool discipline as a whole:
// once every test has run, no pooled complex buffer is out — no session
// left open on any worker, no buffer lost on any path.
func TestMain(m *testing.M) {
	code := m.Run()
	if _, complexes := serve.PoolsOutstanding(); code == 0 && complexes != 0 {
		fmt.Fprintf(os.Stderr, "%d pooled complex buffers left out after the tests\n", complexes)
		code = 1
	}
	os.Exit(code)
}
