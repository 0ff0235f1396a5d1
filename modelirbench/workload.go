package main

// Workloads and the seeded op stream. One seed fixes the daemon's
// archives (modelird -seed), every op's parameters and payload, and the
// arrival schedule, so two runs with the same seed send byte-identical
// traffic on an identical timetable.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"modelir"
)

type opKind int

const (
	opLinear opKind = iota
	opScene
	opFSM
	opFSMDistance
	opGeology
	opKnowledge
	opAppendTuples
	opAppendSeries
	opAppendWells
	numOpKinds
)

var kindNames = [numOpKinds]string{"linear", "scene", "fsm", "fsm-distance", "geology", "knowledge",
	"append-tuples", "append-series", "append-wells"}

// queryKinds are the six query families in reporting order.
var queryKinds = []opKind{opLinear, opScene, opFSM, opFSMDistance, opGeology, opKnowledge}

func (k opKind) String() string  { return kindNames[k] }
func (k opKind) isAppend() bool  { return k >= opAppendTuples }
func (k opKind) dataset() string { return datasetOf[k] }

var datasetOf = [numOpKinds]string{"tuples", "scene", "weather", "weather", "basin", "scene", "tuples", "weather", "basin"}

// Scene queries decompose a re-weighted HPS risk model over the
// Landsat bands and elevation, as modelird's built-in scene demo does.
var (
	sceneAttrs  = []string{"b4", "b5", "b7", "elev"}
	sceneLo     = []float64{0, 0, 0, 0}
	sceneHi     = []float64{255, 255, 255, 1500}
	sceneLevels = []int{2, 4}
	hpsCoeffs   = []float64{0.443, 0.222, 0.153, 0.183}
	tupleAttrs  = []string{"x0", "x1", "x2"}
	lithologies = []string{"shale", "sandstone", "siltstone", "limestone"}
)

// op is one request of the stream. Exactly the fields of its kind are
// set; body is its pre-encoded HTTP body.
type op struct {
	Kind         opKind
	K            int
	Coeffs       []float64
	Prefilter    bool
	Horizon      int
	Sequence     []string
	MaxGapFt     float64
	MinGamma     float64
	GammaRampAPI float64
	Rows         [][]float64
	Series       []modelir.RegionSeries
	Wells        []modelir.WellLog
	Repeat       bool // drawn from the workload's hot set
	body         []byte
}

func (o *op) path() string {
	if o.Kind.isAppend() {
		return "/append"
	}
	return "/run"
}

// rows counts the rows an append carries.
func (o *op) rows() int { return len(o.Rows) + len(o.Series) + len(o.Wells) }

type wireQuery struct {
	Kind         string    `json:"kind"`
	Attrs        []string  `json:"attrs,omitempty"`
	Coeffs       []float64 `json:"coeffs,omitempty"`
	AttrLo       []float64 `json:"attr_lo,omitempty"`
	AttrHi       []float64 `json:"attr_hi,omitempty"`
	Levels       []int     `json:"levels,omitempty"`
	Prefilter    bool      `json:"prefilter,omitempty"`
	Horizon      int       `json:"horizon,omitempty"`
	Sequence     []string  `json:"sequence,omitempty"`
	MaxGapFt     float64   `json:"max_gap_ft,omitempty"`
	MinGamma     float64   `json:"min_gamma,omitempty"`
	GammaRampAPI float64   `json:"gamma_ramp_api,omitempty"`
}

type wireRequest struct {
	Dataset string    `json:"dataset"`
	Query   wireQuery `json:"query"`
	K       int       `json:"k"`
}

type wireAppend struct {
	Dataset string                 `json:"dataset"`
	Tuples  [][]float64            `json:"tuples,omitempty"`
	Series  []modelir.RegionSeries `json:"series,omitempty"`
	Wells   []modelir.WellLog      `json:"wells,omitempty"`
}

// encode renders the op as the JSON body modelird accepts.
func (o *op) encode() ([]byte, error) {
	ds := o.Kind.dataset()
	switch o.Kind {
	case opAppendTuples:
		return json.Marshal(wireAppend{Dataset: ds, Tuples: o.Rows})
	case opAppendSeries:
		return json.Marshal(wireAppend{Dataset: ds, Series: o.Series})
	case opAppendWells:
		return json.Marshal(wireAppend{Dataset: ds, Wells: o.Wells})
	}
	wq := wireQuery{Kind: o.Kind.String()}
	switch o.Kind {
	case opLinear:
		wq.Attrs, wq.Coeffs = tupleAttrs, o.Coeffs
	case opScene:
		wq.Attrs, wq.Coeffs, wq.AttrLo, wq.AttrHi, wq.Levels = sceneAttrs, o.Coeffs, sceneLo, sceneHi, sceneLevels
	case opFSM:
		wq.Prefilter = o.Prefilter
	case opFSMDistance:
		wq.Horizon = o.Horizon
	case opGeology:
		wq.Sequence, wq.MaxGapFt, wq.MinGamma, wq.GammaRampAPI = o.Sequence, o.MaxGapFt, o.MinGamma, o.GammaRampAPI
	}
	return json.Marshal(wireRequest{Dataset: ds, Query: wq, K: o.K})
}

// request builds the engine request modelird compiles from the op's
// body, for the in-process reference and the traced replay.
func (o *op) request() (modelir.Request, error) {
	req := modelir.Request{Dataset: o.Kind.dataset(), K: o.K}
	switch o.Kind {
	case opLinear:
		m, err := modelir.NewLinearModel(tupleAttrs, o.Coeffs, 0)
		if err != nil {
			return req, err
		}
		req.Query = modelir.LinearQuery{Model: m}
	case opScene:
		m, err := modelir.NewLinearModel(sceneAttrs, o.Coeffs, 0)
		if err != nil {
			return req, err
		}
		pm, err := modelir.DecomposeLinear(m, sceneLo, sceneHi, sceneLevels...)
		if err != nil {
			return req, err
		}
		req.Query = modelir.SceneQuery{Model: pm}
	case opFSM:
		q := modelir.FSMQuery{Machine: modelir.FireAntsModel()}
		if o.Prefilter {
			q.Prefilter = modelir.FireAntsPrefilter
		}
		req.Query = q
	case opFSMDistance:
		req.Query = modelir.FSMDistanceQuery{Target: modelir.FireAntsModel(), Horizon: o.Horizon}
	case opGeology:
		seq := make([]modelir.Lithology, len(o.Sequence))
		for i, s := range o.Sequence {
			l, ok := lithologyByName[s]
			if !ok {
				return req, fmt.Errorf("unknown lithology %q", s)
			}
			seq[i] = l
		}
		req.Query = modelir.GeologyQuery{Sequence: seq, MaxGapFt: o.MaxGapFt, MinGamma: o.MinGamma,
			GammaRampAPI: o.GammaRampAPI, Method: modelir.GeoDP}
	case opKnowledge:
		req.Query = modelir.KnowledgeQuery{Rules: modelir.HPSTileRules()}
	default:
		return req, fmt.Errorf("%s is not a query", o.Kind)
	}
	return req, nil
}

var lithologyByName = map[string]modelir.Lithology{
	"shale": modelir.Shale, "sandstone": modelir.Sandstone,
	"siltstone": modelir.Siltstone, "limestone": modelir.Limestone,
}

// workload is one traffic mix against one deployment of modelird.
type workload struct {
	name string
	// role is "single" (cold build), "restore" (boot from a snapshot
	// written in an untimed prep step) or "cluster" (router in front of
	// two nodes, replication 2).
	role                          string
	tuples, scene, regions, wells int
	// rate is the fixed arrival rate of the load run, ops/s.
	rate float64
	// mix weighs the op kinds; appends are part of the mix.
	mix [numOpKinds]float64
	// repeatShare of query ops repeat one of hotSet hot queries; the
	// rest draw fresh parameters.
	repeatShare float64
	hotSet      int
	// tupleRows, seriesRows and wellRows bound the rows per append
	// (inclusive).
	tupleRows, seriesRows, wellRows [2]int
	// p99LimitMS is the query latency limit a ladder rung must meet.
	p99LimitMS float64
	// ladder is the fixed rate ladder (ops/s) sustained_qps is read on.
	ladder []float64
}

// families lists the query kinds the workload sends.
func (w *workload) families() []opKind {
	var out []opKind
	for _, k := range queryKinds {
		if w.mix[k] > 0 {
			out = append(out, k)
		}
	}
	return out
}

// appended reports whether the workload appends to dataset.
func (w *workload) appended(dataset string) bool {
	for k, v := range w.mix {
		if v > 0 && opKind(k).isAppend() && opKind(k).dataset() == dataset {
			return true
		}
	}
	return false
}

// daemonArgs are the archive flags every modelird of the workload gets.
func (w *workload) daemonArgs(seed int64) []string {
	return []string{"-shards", fmt.Sprint(engineShards), "-seed", fmt.Sprint(seed),
		"-tuples", fmt.Sprint(w.tuples), "-scene", fmt.Sprint(w.scene),
		"-regions", fmt.Sprint(w.regions), "-wells", fmt.Sprint(w.wells)}
}

// engineShards fixes the per-dataset shard count on every host, so the
// kernels' work counters do not depend on the core count.
const engineShards = 2

// ladderRungs is the number of rungs of every workload's rate ladder.
const ladderRungs = 16

// ladder returns ladderRungs rates rising geometrically from lo by
// ratio. Adjacent rungs are close, so one rung's difference between
// runs moves sustained_qps by ratio-1 at most.
func ladder(lo, ratio float64) []float64 {
	out := make([]float64, ladderRungs)
	for i := range out {
		out[i] = math.Round(lo*math.Pow(ratio, float64(i))*10) / 10
	}
	return out
}

var workloads = []*workload{
	{
		name:   "archive-mix",
		role:   "single",
		tuples: 120000, scene: 384, regions: 1000, wells: 500,
		rate: 120,
		mix: [numOpKinds]float64{
			opLinear: 30, opScene: 15, opFSM: 12, opFSMDistance: 8, opGeology: 8, opKnowledge: 20,
			opAppendWells: 3,
		},
		repeatShare: 0.5, hotSet: 64,
		wellRows:   [2]int{1, 1},
		p99LimitMS: 50,
		ladder:     ladder(600, 1.1),
	},
	{
		name:   "ingest-mix",
		role:   "restore",
		tuples: 20000, scene: 256, regions: 300, wells: 200,
		rate: 80,
		mix: [numOpKinds]float64{
			opLinear: 35, opFSM: 15, opScene: 30,
			opAppendTuples: 16, opAppendSeries: 4,
		},
		repeatShare: 0.2, hotSet: 16,
		tupleRows: [2]int{2, 10}, seriesRows: [2]int{1, 1},
		p99LimitMS: 100,
		ladder:     ladder(300, 1.1),
	},
	{
		name:   "cluster-scatter",
		role:   "cluster",
		tuples: 100000, scene: 256, regions: 300, wells: 200,
		rate: 100,
		mix: [numOpKinds]float64{
			opLinear: 60, opScene: 30, opAppendTuples: 10,
		},
		tupleRows:  [2]int{2, 8},
		p99LimitMS: 50,
		ladder:     ladder(400, 1.1),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Stream seeds are offsets of the run seed, so each part of the stream
// draws from its own generator and adding ops never shifts another
// part's values.
const (
	seedOps      = 1_000_003
	seedHot      = 2_000_003
	seedArrivals = 3_000_017
	seedSeries   = 102
	seedWells    = 103
)

// genOps returns the workload's first n ops for seed, bodies encoded.
func genOps(w *workload, seed int64, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed + seedOps))
	hrng := rand.New(rand.NewSource(seed + seedHot))
	hot := hotSet(w, hrng)
	ops := make([]op, n)
	series, wells := 0, 0
	for i := range ops {
		k := pickKind(rng, w, true)
		switch {
		case k == opAppendTuples:
			ops[i] = op{Kind: k, Rows: tupleRows(rng, between(rng, w.tupleRows))}
		// Series and well payloads are filled below, once their totals
		// are known.
		case k == opAppendSeries:
			ops[i] = op{Kind: k, Series: make([]modelir.RegionSeries, between(rng, w.seriesRows))}
			series += len(ops[i].Series)
		case k == opAppendWells:
			ops[i] = op{Kind: k, Wells: make([]modelir.WellLog, between(rng, w.wellRows))}
			wells += len(ops[i].Wells)
		case len(hot) > 0 && rng.Float64() < w.repeatShare:
			ops[i] = hot[rng.Intn(len(hot))]
		default:
			ops[i] = freshQuery(w, rng, k)
		}
	}
	// Appended regions and wells are numbered on from the base IDs.
	if series > 0 {
		pool, err := modelir.GenerateWeather(modelir.WeatherConfig{Seed: seed + seedSeries, Regions: series, Days: 365})
		if err != nil {
			return nil, fmt.Errorf("append series: %w", err)
		}
		next := 0
		for i := range ops {
			for j := range ops[i].Series {
				pool[next].Region = w.regions + next
				ops[i].Series[j] = pool[next]
				next++
			}
		}
	}
	if wells > 0 {
		pool, _, err := modelir.GenerateWells(modelir.WellConfig{Seed: seed + seedWells, Wells: wells})
		if err != nil {
			return nil, fmt.Errorf("append wells: %w", err)
		}
		next := 0
		for i := range ops {
			for j := range ops[i].Wells {
				pool[next].Well = w.wells + next
				ops[i].Wells[j] = pool[next]
				next++
			}
		}
	}
	for i := range ops {
		b, err := ops[i].encode()
		if err != nil {
			return nil, err
		}
		ops[i].body = b
	}
	return ops, nil
}

// hotSet draws the workload's hot queries. Each family gets its share
// of the set by its mix weight, rounded, so the cost of the repeated
// queries does not swing with the seed; only their parameters do.
func hotSet(w *workload, rng *rand.Rand) []op {
	var total float64
	for _, k := range queryKinds {
		total += w.mix[k]
	}
	var hot []op
	for _, k := range queryKinds {
		for n := int(math.Round(float64(w.hotSet) * w.mix[k] / total)); n > 0; n-- {
			o := freshQuery(w, rng, k)
			o.Repeat = true
			hot = append(hot, o)
		}
	}
	return hot
}

// pickKind draws an op kind by the workload's mix weights; without
// appends it draws among the query kinds only.
func pickKind(rng *rand.Rand, w *workload, appends bool) opKind {
	var total float64
	for k, v := range w.mix {
		if appends || !opKind(k).isAppend() {
			total += v
		}
	}
	u := rng.Float64() * total
	for k, v := range w.mix {
		if !appends && opKind(k).isAppend() {
			continue
		}
		if u < v {
			return opKind(k)
		}
		u -= v
	}
	return opLinear
}

func between(rng *rand.Rand, r [2]int) int { return r[0] + rng.Intn(r[1]-r[0]+1) }

// freshQuery draws new parameters for a query of kind k.
func freshQuery(w *workload, rng *rand.Rand, k opKind) op {
	o := op{Kind: k}
	switch k {
	case opLinear:
		o.Coeffs = []float64{0.05 + rng.Float64(), 0.05 + rng.Float64(), 0.05 + rng.Float64()}
		o.K = 1 + rng.Intn(50)
	case opScene:
		o.Coeffs = make([]float64, len(hpsCoeffs))
		for i, c := range hpsCoeffs {
			o.Coeffs[i] = c * (0.5 + rng.Float64())
		}
		o.K = 1 + rng.Intn(20)
	case opFSM:
		o.Prefilter = rng.Intn(2) == 0
		o.K = 1 + rng.Intn(20)
	case opFSMDistance:
		o.Horizon = 4 + 2*rng.Intn(3)
		o.K = 1 + rng.Intn(20)
	case opGeology:
		n := 2 + rng.Intn(2)
		o.Sequence = make([]string, n)
		prev := -1
		for i := range o.Sequence {
			l := rng.Intn(len(lithologies))
			if l == prev {
				l = (l + 1) % len(lithologies)
			}
			o.Sequence[i], prev = lithologies[l], l
		}
		o.MaxGapFt = math.Round(50+100*rng.Float64()) / 10
		o.MinGamma = float64(35 + rng.Intn(21))
		o.GammaRampAPI = float64(rng.Intn(11))
		o.K = 1 + rng.Intn(20)
	case opKnowledge:
		o.K = 1 + rng.Intn(50)
	}
	return o
}

// tupleRows draws n fresh rows from the base archive's distribution.
func tupleRows(rng *rand.Rand, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, len(tupleAttrs))
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	return rows
}

// arrivals returns arrival offsets at a mean of rate ops/s covering d:
// op k is due at (k + u)/rate with u drawn uniformly from [0, 1), so
// the rate is fixed over any window while the exact send times still
// come from the seed.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed + seedArrivals))
	var out []time.Duration
	for k := 0; ; k++ {
		at := time.Duration((float64(k) + rng.Float64()) / rate * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// warmupOps returns one fixed query per family the workload sends.
func warmupOps(w *workload) ([]op, error) {
	var out []op
	for _, k := range w.families() {
		o := freshQuery(w, rand.New(rand.NewSource(1)), k)
		b, err := o.encode()
		if err != nil {
			return nil, err
		}
		o.body = b
		out = append(out, o)
	}
	return out, nil
}
