package chain

import "testing"

func TestAddAndLookup(t *testing.T) {
	r := NewRegistry()
	c1 := r.MustAdd("fw-nat-mon", 0, 1, 2)
	c2 := r.MustAdd("fw-dpi", 0, 3)
	if c1.ID != 0 || c2.ID != 1 {
		t.Fatalf("ids: %d %d", c1.ID, c2.ID)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Get(0) != c1 || r.Get(1) != c2 {
		t.Fatal("Get mismatch")
	}
	if r.Get(99) != nil || r.Get(-1) != nil {
		t.Fatal("out-of-range Get should be nil")
	}
}

func TestChainValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Add("empty"); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := r.Add("dup", 1, 2, 1); err == nil {
		t.Fatal("repeated NF accepted")
	}
}

func TestAccessors(t *testing.T) {
	r := NewRegistry()
	c := r.MustAdd("abc", 10, 20, 30)
	if c.Len() != 3 || c.Entry() != 10 || c.NFAt(2) != 30 {
		t.Fatal("basic accessors wrong")
	}
}

func TestString(t *testing.T) {
	r := NewRegistry()
	c := r.MustAdd("x", 1, 2)
	if c.String() != "chain0[1 2]" {
		t.Fatalf("String = %q", c.String())
	}
}
