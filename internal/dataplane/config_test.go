package dataplane

import (
	"runtime"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"defaults", DefaultConfig(), true},
		{"negative cores", Config{Cores: -1}, false},
		{"negative movers", Config{Movers: -2}, false},
		{"negative ring", Config{RingSize: -1}, false},
		{"negative batch", Config{BatchSize: -8}, false},
		{"negative backpressure period", Config{BackpressurePeriod: -time.Millisecond}, false},
		{"negative weight period", Config{WeightPeriod: -time.Second}, false},
		{"high frac above one", Config{HighFrac: 1.5}, false},
		{"negative low frac", Config{LowFrac: -0.1}, false},
		{"low above high", Config{HighFrac: 0.5, LowFrac: 0.7}, false},
		{"high frac one", Config{HighFrac: 1.0, LowFrac: 0.5}, true},
		{"paper cadences", Config{BackpressurePeriod: time.Millisecond,
			WeightPeriod: 10 * time.Millisecond}, true},
		// Negative values with documented meanings must stay legal.
		{"negative grant timeout", Config{GrantTimeout: -1}, true},
		{"negative drain timeout", Config{DrainTimeout: -1}, true},
		{"unlimited restarts", Config{MaxRestarts: -1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a negative Movers count")
		}
	}()
	New(Config{Movers: -1})
}

// TestConfigCadenceDefaults pins the paper's control-plane cadences: 1 ms
// backpressure/load estimation, 10 ms weight push.
func TestConfigCadenceDefaults(t *testing.T) {
	def := DefaultConfig()
	if def.BackpressurePeriod != time.Millisecond {
		t.Errorf("default BackpressurePeriod = %v, want 1ms", def.BackpressurePeriod)
	}
	if def.WeightPeriod != 10*time.Millisecond {
		t.Errorf("default WeightPeriod = %v, want 10ms", def.WeightPeriod)
	}
	e := New(Config{})
	if e.cfg.BackpressurePeriod != time.Millisecond {
		t.Errorf("resolved BackpressurePeriod = %v, want 1ms", e.cfg.BackpressurePeriod)
	}
}

// TestMoversDefault pins the Movers auto-default: min(Cores, GOMAXPROCS),
// never below 1.
func TestMoversDefault(t *testing.T) {
	maxp := runtime.GOMAXPROCS(0)
	want := func(cores int) int {
		m := cores
		if m > maxp {
			m = maxp
		}
		if m < 1 {
			m = 1
		}
		return m
	}
	for _, cores := range []int{1, 2, 8} {
		e := New(Config{Cores: cores})
		if got := len(e.movers); got != want(cores) {
			t.Errorf("Cores=%d: movers = %d, want %d", cores, got, want(cores))
		}
	}
	// An explicit Movers wins over the derived default.
	e := New(Config{Cores: 1, Movers: 3})
	if len(e.movers) != 3 {
		t.Errorf("explicit Movers=3: movers = %d", len(e.movers))
	}
	if len(e.MoverStats()) != 3 {
		t.Errorf("MoverStats length = %d, want 3", len(e.MoverStats()))
	}
}
