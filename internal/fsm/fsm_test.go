package fsm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelir/internal/synth"
)

func twoStateMachine(t *testing.T) *Machine {
	t.Helper()
	b := NewBuilder([]string{"a", "b"})
	s0 := b.State("s0")
	s1 := b.State("s1")
	b.Start(s0).Accept(s1)
	b.On(s0, 0, s1).On(s0, 1, s0)
	b.On(s1, 0, s1).On(s1, 1, s0)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(nil).Build(); err == nil {
		t.Fatal("want error for empty alphabet")
	}
	b := NewBuilder([]string{"a"})
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for no states")
	}
	s := b.State("s")
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for no start")
	}
	b.Start(s)
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for missing transition")
	}
	b.On(s, 0, s)
	if _, err := b.Build(); err != nil {
		t.Fatalf("complete machine rejected: %v", err)
	}
	// Out-of-range transition target.
	b2 := NewBuilder([]string{"a"})
	s2 := b2.State("s")
	b2.Start(s2).On(s2, 0, 99)
	if _, err := b2.Build(); err == nil {
		t.Fatal("want error for out-of-range target")
	}
}

func TestOnAll(t *testing.T) {
	b := NewBuilder([]string{"a", "b", "c"})
	s0 := b.State("s0")
	s1 := b.State("s1")
	b.Start(s0)
	b.On(s0, 0, s1) // explicit edge survives OnAll
	b.OnAll(s0, s0)
	b.OnAll(s1, s1)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Next(s0, 0); n != s1 {
		t.Fatal("OnAll overwrote explicit transition")
	}
	if n, _ := m.Next(s0, 1); n != s0 {
		t.Fatal("OnAll default missing")
	}
}

func TestRunAndTrace(t *testing.T) {
	m := twoStateMachine(t)
	res, err := m.Run([]Event{1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// states: s0 -1-> s0 -0-> s1 -0-> s1 -1-> s0
	if res.FirstAccept != 1 || res.AcceptCount != 2 || res.Final != 0 {
		t.Fatalf("run=%+v", res)
	}
	tr, err := m.Trace([]Event{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace=%v want %v", tr, want)
		}
	}
	if _, err := m.Run([]Event{5}); err == nil {
		t.Fatal("want error for out-of-range event")
	}
	if _, err := m.Trace([]Event{-1}); err == nil {
		t.Fatal("want error for negative event")
	}
}

func TestAccessors(t *testing.T) {
	m := twoStateMachine(t)
	if m.NumStates() != 2 || m.NumEvents() != 2 || m.Start() != 0 {
		t.Fatal("accessors wrong")
	}
	if m.StateName(1) != "s1" || !m.IsAccept(1) || m.IsAccept(0) {
		t.Fatal("state metadata wrong")
	}
	if got := m.Alphabet(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("alphabet %v", got)
	}
	if _, err := m.Next(-1, 0); err == nil {
		t.Fatal("want error for bad state")
	}
	if _, err := m.Next(0, 9); err == nil {
		t.Fatal("want error for bad event")
	}
}

func TestFireAntsScenarios(t *testing.T) {
	m := FireAnts()
	cases := []struct {
		name   string
		events []Event
		flyAt  int // expected FirstAccept, -1 = never
	}{
		{"rain then 3 hot dry days", []Event{EvRain, EvDryHot, EvDryHot, EvDryHot}, 3},
		{"rain then 2 dry days only", []Event{EvRain, EvDryHot, EvDryHot}, -1},
		{"third dry day too cold, fourth hot", []Event{EvRain, EvDryHot, EvDryHot, EvDryCold, EvDryHot}, 4},
		{"always cold never flies", []Event{EvRain, EvDryCold, EvDryCold, EvDryCold, EvDryCold}, -1},
		{"rain resets the count", []Event{EvRain, EvDryHot, EvDryHot, EvRain, EvDryHot, EvDryHot, EvDryHot}, 6},
		{"flying persists while dry", []Event{EvRain, EvDryHot, EvDryHot, EvDryHot, EvDryCold}, 3},
		{"rain stops flying", []Event{EvRain, EvDryHot, EvDryHot, EvDryHot, EvRain}, 3},
	}
	for _, c := range cases {
		res, err := m.Run(c.events)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.FirstAccept != c.flyAt {
			t.Errorf("%s: FirstAccept=%d want %d", c.name, res.FirstAccept, c.flyAt)
		}
	}
	// Persistence detail: after flying, a dry cold day stays flying.
	res, _ := m.Run([]Event{EvRain, EvDryHot, EvDryHot, EvDryHot, EvDryCold})
	if res.AcceptCount != 2 {
		t.Fatalf("persistence: AcceptCount=%d want 2", res.AcceptCount)
	}
	// ...but rain ends it.
	res, _ = m.Run([]Event{EvRain, EvDryHot, EvDryHot, EvDryHot, EvRain})
	if res.AcceptCount != 1 || m.IsAccept(res.Final) {
		t.Fatalf("rain reset: %+v", res)
	}
}

func TestClassifyDay(t *testing.T) {
	if ClassifyDay(synth.DayWeather{Rain: true, TempC: 30}) != EvRain {
		t.Fatal("rain misclassified")
	}
	if ClassifyDay(synth.DayWeather{TempC: 25}) != EvDryHot {
		t.Fatal("boundary temp must be hot (>= 25)")
	}
	if ClassifyDay(synth.DayWeather{TempC: 24.9}) != EvDryCold {
		t.Fatal("cool day misclassified")
	}
	days := []synth.DayWeather{{Rain: true}, {TempC: 30}}
	ev := ClassifySeries(days)
	if len(ev) != 2 || ev[0] != EvRain || ev[1] != EvDryHot {
		t.Fatalf("series %v", ev)
	}
}

func TestFlyScore(t *testing.T) {
	m := FireAnts()
	never := []Event{EvRain, EvDryCold, EvDryCold}
	s, err := FlyScore(m, never)
	if err != nil || s != 0 {
		t.Fatalf("never-fly score %v err %v", s, err)
	}
	early := []Event{EvRain, EvDryHot, EvDryHot, EvDryHot, EvDryHot, EvDryHot}
	late := []Event{EvRain, EvDryCold, EvDryCold, EvDryCold, EvDryCold, EvDryHot}
	se, _ := FlyScore(m, early)
	sl, _ := FlyScore(m, late)
	if se <= sl {
		t.Fatalf("earlier+longer flight must score higher: %v vs %v", se, sl)
	}
	if _, err := FlyScore(m, []Event{9}); err == nil {
		t.Fatal("want error for bad event")
	}
	// FlyScore over a precomputed event plane is the fsm family's scan
	// kernel and must not allocate.
	if allocs := testing.AllocsPerRun(100, func() { FlyScore(m, early) }); allocs != 0 {
		t.Fatalf("FlyScore allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestDistanceProperties(t *testing.T) {
	m := FireAnts()
	d, err := Distance(m, m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("self distance %v", d)
	}
	// A machine that flies after only 2 dry days differs.
	b := NewBuilder(FireAntsAlphabet)
	rain := b.State("rain")
	dry1 := b.State("dry-1")
	fly := b.State("fly")
	b.Start(rain).Accept(fly)
	for _, s := range []int{rain, dry1, fly} {
		b.On(s, EvRain, rain)
	}
	b.On(rain, EvDryHot, dry1).On(rain, EvDryCold, dry1)
	b.On(dry1, EvDryHot, fly).On(dry1, EvDryCold, dry1)
	b.On(fly, EvDryHot, fly).On(fly, EvDryCold, fly)
	early, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Distance(m, early, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d1 <= 0 || d1 > 1 {
		t.Fatalf("distance %v out of (0,1]", d1)
	}
	d2, _ := Distance(early, m, 10)
	if math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("asymmetric distance %v vs %v", d1, d2)
	}
}

func TestDistanceValidation(t *testing.T) {
	m := FireAnts()
	if _, err := Distance(nil, m, 5); err == nil {
		t.Fatal("want nil machine error")
	}
	if _, err := Distance(m, m, 0); err == nil {
		t.Fatal("want maxLen error")
	}
	other := twoStateMachine(t)
	if _, err := Distance(m, other, 5); err == nil {
		t.Fatal("want alphabet mismatch error")
	}
}

// Property: distance is always in [0,1] and symmetric for random machines.
func TestDistanceRandomProperty(t *testing.T) {
	build := func(rng *rand.Rand, states, events int) *Machine {
		b := NewBuilder(make([]string, events))
		for i := 0; i < states; i++ {
			b.State("s")
		}
		b.Start(0)
		for s := 0; s < states; s++ {
			if rng.Float64() < 0.3 {
				b.Accept(s)
			}
			for e := 0; e < events; e++ {
				b.On(s, Event(e), rng.Intn(states))
			}
		}
		m, err := b.Build()
		if err != nil {
			panic(err)
		}
		return m
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		states := 2 + rng.Intn(5)
		events := 1 + rng.Intn(3)
		a := build(rng, states, events)
		c := build(rng, 2+rng.Intn(5), events)
		d1, err := Distance(a, c, 8)
		if err != nil {
			return false
		}
		d2, _ := Distance(c, a, 8)
		return d1 >= 0 && d1 <= 1 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractReproducesReference(t *testing.T) {
	m := FireAnts()
	// Generate event streams from real weather; data consistent with the
	// reference yields the reference machine back.
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 5, Regions: 4, Days: 600})
	if err != nil {
		t.Fatal(err)
	}
	series := make([][]Event, len(arch))
	for i, rs := range arch {
		series[i] = ClassifySeries(rs.Days)
	}
	got, err := Extract(m, series)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Distance(m, got, 12)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("extracted machine differs from reference: distance %v", d)
	}
}

func TestExtractObservedDeviation(t *testing.T) {
	m := FireAnts()
	// Observations claiming dry-2 --dry_T>=25--> dry-3+ (instead of fly).
	dry2, dry3 := 2, 3
	obs := [][3]int{}
	for i := 0; i < 10; i++ {
		obs = append(obs, [3]int{dry2, int(EvDryHot), dry3})
	}
	dev, err := ExtractObserved(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Distance(m, dev, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("deviating observations must yield nonzero distance")
	}
	if _, err := ExtractObserved(m, [][3]int{{99, 0, 0}}); err == nil {
		t.Fatal("want range error")
	}
	if _, err := ExtractObserved(nil, nil); err == nil {
		t.Fatal("want nil reference error")
	}
}

func TestExtractValidation(t *testing.T) {
	if _, err := Extract(nil, nil); err == nil {
		t.Fatal("want nil reference error")
	}
	m := FireAnts()
	if _, err := Extract(m, [][]Event{{Event(99)}}); err == nil {
		t.Fatal("want event range error")
	}
}
