package cache_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"codeletfft/internal/cache"
)

func intHash(k int) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ h>>33
}

func TestGetOrCreateCachesAndEvicts(t *testing.T) {
	// One shard of capacity 2 makes the LRU order observable.
	c := cache.New[int, string](1, 2, intHash)
	mk := func(k int) func() (string, error) {
		return func() (string, error) { return fmt.Sprintf("v%d", k), nil }
	}
	for _, k := range []int{1, 2, 3} { // 3 evicts 1 (LRU)
		if v, err := c.GetOrCreate(k, mk(k)); err != nil || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("GetOrCreate(%d) = %q, %v", k, v, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (cap)", c.Len())
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("key 1 should have been evicted as LRU")
	}
	if v, ok := c.Get(3); !ok || v != "v3" {
		t.Fatalf("Get(3) = %q, %v", v, ok)
	}
	// Touching 2 promotes it; inserting 4 must now evict 3.
	c.Get(2)
	c.GetOrCreate(4, mk(4))
	if _, ok := c.Get(3); ok {
		t.Fatal("key 3 should have been evicted after 2 was touched")
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("key 2 should have survived")
	}
}

func TestGetOrCreateSingleFlight(t *testing.T) {
	c := cache.New[int, int](4, 4, intHash)
	var calls atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrCreate(7, func() (int, error) {
				calls.Add(1)
				return 49, nil
			})
			if err != nil || v != 49 {
				t.Errorf("GetOrCreate = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("create ran %d times, want 1", calls.Load())
	}
}

func TestGetOrCreateErrorNotCached(t *testing.T) {
	c := cache.New[int, int](1, 4, intHash)
	boom := errors.New("boom")
	fail := true
	create := func() (int, error) {
		if fail {
			return 0, boom
		}
		return 42, nil
	}
	if _, err := c.GetOrCreate(1, create); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry cached: Len = %d", c.Len())
	}
	fail = false
	if v, err := c.GetOrCreate(1, create); err != nil || v != 42 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}

// TestConcurrentGetEvictChurn is the -race gate: many goroutines hammer
// GetOrCreate/Get over a keyspace several times the cache capacity, so
// lookups, single-flight creates, LRU promotions and evictions all
// interleave. Every returned value must still be the right one for its
// key, and the size bound must hold at every probe.
func TestConcurrentGetEvictChurn(t *testing.T) {
	c := cache.New[int, int](4, 2, intHash) // capacity 8
	const keyspace = 64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				k := rng.Intn(keyspace)
				if rng.Intn(4) == 0 {
					if v, ok := c.Get(k); ok && v != k*k {
						t.Errorf("Get(%d) = %d, want %d", k, v, k*k)
						return
					}
					continue
				}
				v, err := c.GetOrCreate(k, func() (int, error) { return k * k, nil })
				if err != nil || v != k*k {
					t.Errorf("GetOrCreate(%d) = %d, %v", k, v, err)
					return
				}
				if n := c.Len(); n > c.Cap() {
					t.Errorf("Len %d exceeds cap %d", n, c.Cap())
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if n := c.Len(); n > c.Cap() || n == 0 {
		t.Fatalf("final Len = %d (cap %d)", n, c.Cap())
	}
}

func TestPurge(t *testing.T) {
	c := cache.New[int, int](2, 4, intHash)
	for k := 0; k < 6; k++ {
		c.GetOrCreate(k, func() (int, error) { return k, nil })
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d", c.Len())
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("Get hit after Purge")
	}
}

func TestStats(t *testing.T) {
	c := cache.New[int, string](1, 4, intHash)
	mk := func() (string, error) { return "v", nil }
	if _, err := c.GetOrCreate(1, mk); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := c.GetOrCreate(1, mk); err != nil { // hit
		t.Fatal(err)
	}
	c.Get(1)                                               // hit
	c.Get(2)                                               // miss
	if _, err := c.GetOrCreate(3, func() (string, error) { // miss, not cached
		return "", errors.New("boom")
	}); err == nil {
		t.Fatal("want create error")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 3 {
		t.Fatalf("Stats = (%d hits, %d misses), want (2, 3)", hits, misses)
	}
	c.Purge()
	if h, m := c.Stats(); h != hits || m != misses {
		t.Fatal("Purge must not reset stats")
	}
}
