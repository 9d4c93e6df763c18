package lru

import "testing"

func TestGetAdd(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // a is now most recently used
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
}

func TestAddRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 9) // refresh value + recency, no growth
	c.Add("c", 3) // evicts b
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("a = %d, want 9", v)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int, int](0)
	if c.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", c.Cap())
	}
	c.Add(1, 1)
	c.Add(2, 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestNeverExceedsCap(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 1000; i++ {
		c.Add(i, i)
		if c.Len() > 8 {
			t.Fatalf("Len = %d exceeds cap after %d adds", c.Len(), i+1)
		}
	}
}

func TestPurge(t *testing.T) {
	c := New[int, int](4)
	c.Add(1, 1)
	c.Add(2, 2)
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d, want 0", c.Len())
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("purged key still present")
	}
	c.Add(3, 3)
	if v, ok := c.Get(3); !ok || v != 3 || c.Len() != 1 {
		t.Fatalf("after Purge: Get(3) = %d,%v Len = %d", v, ok, c.Len())
	}
}
