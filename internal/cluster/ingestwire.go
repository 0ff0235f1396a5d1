// Wire codecs for the replicated ingest protocol. Four frame types
// extend the query protocol from wire.go:
//
//	'A' append    router → node: one sequenced delta batch for one
//	              partition (dataset, part, seq, global ID base for
//	              tuples, and the rows themselves)
//	'K' append-ack node → router: the seq echoed back plus whether the
//	              batch applied or was a sequence duplicate, and the
//	              dataset's generation after it
//	'H' health    both ways: an empty probe/echo pair
//	'U' seq-state router → node: a dataset filter ("" = all); node →
//	              router: one (dataset, part, lastSeq, watermark) entry
//	              per partition the node holds
//
// Like the query payloads, everything rides the canonical encoding and
// decodes through the bounds-checked canon.Reader, so a truncated or
// hostile frame fails with canon.ErrCorrupt instead of panicking.

package cluster

import (
	"fmt"
	"math"

	"modelir/internal/canon"
	"modelir/internal/synth"
)

// Ingest frame types (query frames are in wire.go).
const (
	frameAppend    = 'A' // router → node: one sequenced append batch
	frameAppendAck = 'K' // node → router: applied/duplicate ack
	frameHealth    = 'H' // both ways: probe and echo
	frameSeqState  = 'U' // both ways: seq-state request and report
)

// Append payload kinds inside an 'A' frame.
const (
	appendTuples = 't'
	appendSeries = 's'
	appendWells  = 'w'
)

// AppendBatch is one sequenced delta batch for one partition — the
// decoded form of an 'A' frame. Exactly one of Tuples/Series/Wells is
// non-empty. Base is the global tuple row base the batch lands at
// (unused for series and wells, whose IDs are intrinsic to the rows).
type AppendBatch struct {
	Dataset string
	Part    int
	Seq     uint64
	Base    int64
	Tuples  [][]float64
	Series  []synth.RegionSeries
	Wells   []synth.WellLog
}

// Rows counts the batch's rows regardless of kind.
func (b AppendBatch) Rows() int {
	return len(b.Tuples) + len(b.Series) + len(b.Wells)
}

// encodeAppend serializes an 'A' payload.
func encodeAppend(b AppendBatch) ([]byte, error) {
	out := []byte{wireVersion}
	out = canon.AppendString(out, b.Dataset)
	out = canon.AppendUint(out, uint64(b.Part))
	out = canon.AppendUint(out, b.Seq)
	out = canon.AppendUint(out, uint64(b.Base))
	kinds := 0
	for _, nonEmpty := range []bool{len(b.Tuples) > 0, len(b.Series) > 0, len(b.Wells) > 0} {
		if nonEmpty {
			kinds++
		}
	}
	if kinds != 1 {
		return nil, fmt.Errorf("cluster: append batch needs exactly one non-empty payload, have %d", kinds)
	}
	switch {
	case len(b.Tuples) > 0:
		out = append(out, appendTuples)
		out = canon.AppendUint(out, uint64(len(b.Tuples)))
		for _, row := range b.Tuples {
			out = canon.AppendFloats(out, row)
		}
	case len(b.Series) > 0:
		out = append(out, appendSeries)
		out = canon.AppendUint(out, uint64(len(b.Series)))
		for _, rs := range b.Series {
			out = canon.AppendUint(out, uint64(int64(rs.Region)))
			out = canon.AppendUint(out, uint64(len(rs.Days)))
			for _, d := range rs.Days {
				if d.Rain {
					out = append(out, 1)
				} else {
					out = append(out, 0)
				}
				out = canon.AppendFloat(out, d.RainMM)
				out = canon.AppendFloat(out, d.TempC)
			}
		}
	default:
		out = append(out, appendWells)
		out = canon.AppendUint(out, uint64(len(b.Wells)))
		for _, w := range b.Wells {
			out = canon.AppendUint(out, uint64(int64(w.Well)))
			out = canon.AppendUint(out, uint64(len(w.Strata)))
			for _, s := range w.Strata {
				out = canon.AppendUint(out, uint64(s.Lith))
				out = canon.AppendFloat(out, s.TopFt)
				out = canon.AppendFloat(out, s.ThickFt)
				out = canon.AppendFloat(out, s.GammaAPI)
			}
			out = canon.AppendFloats(out, w.Gamma)
		}
	}
	return out, nil
}

func decodeAppend(payload []byte) (AppendBatch, error) {
	var b AppendBatch
	r := canon.NewReader(payload)
	err := readVersion(r)
	if err != nil {
		return b, err
	}
	if b.Dataset, err = r.String(); err != nil {
		return b, err
	}
	part, err := r.Uint()
	if err != nil {
		return b, err
	}
	if part > math.MaxInt32 {
		return b, canon.ErrCorrupt
	}
	b.Part = int(part)
	if b.Seq, err = r.Uint(); err != nil {
		return b, err
	}
	base, err := r.Uint()
	if err != nil {
		return b, err
	}
	if base > math.MaxInt64 {
		return b, canon.ErrCorrupt
	}
	b.Base = int64(base)
	kind, err := r.Byte()
	if err != nil {
		return b, err
	}
	switch kind {
	case appendTuples:
		// A row is at least a count prefix.
		n, err := r.Count(8)
		if err != nil {
			return b, err
		}
		b.Tuples = make([][]float64, n)
		for i := range b.Tuples {
			if b.Tuples[i], err = r.Floats(); err != nil {
				return b, err
			}
		}
	case appendSeries:
		// A region is at least an ID and a day count.
		n, err := r.Count(16)
		if err != nil {
			return b, err
		}
		b.Series = make([]synth.RegionSeries, n)
		for i := range b.Series {
			id, err := r.Uint()
			if err != nil {
				return b, err
			}
			b.Series[i].Region = int(int64(id))
			// A day is a rain flag plus two floats.
			days, err := r.Count(17)
			if err != nil {
				return b, err
			}
			b.Series[i].Days = make([]synth.DayWeather, days)
			for j := range b.Series[i].Days {
				rain, err := r.Byte()
				if err != nil {
					return b, err
				}
				switch rain {
				case 0:
				case 1:
					b.Series[i].Days[j].Rain = true
				default:
					return b, canon.ErrCorrupt
				}
				if b.Series[i].Days[j].RainMM, err = r.Float(); err != nil {
					return b, err
				}
				if b.Series[i].Days[j].TempC, err = r.Float(); err != nil {
					return b, err
				}
			}
		}
	case appendWells:
		// A well is at least an ID, a strata count, and a trace count.
		n, err := r.Count(24)
		if err != nil {
			return b, err
		}
		b.Wells = make([]synth.WellLog, n)
		for i := range b.Wells {
			id, err := r.Uint()
			if err != nil {
				return b, err
			}
			b.Wells[i].Well = int(int64(id))
			// A stratum is a lithology plus three floats.
			strata, err := r.Count(32)
			if err != nil {
				return b, err
			}
			b.Wells[i].Strata = make([]synth.Stratum, strata)
			for j := range b.Wells[i].Strata {
				lith, err := r.Uint()
				if err != nil {
					return b, err
				}
				if lith > math.MaxInt32 {
					return b, canon.ErrCorrupt
				}
				b.Wells[i].Strata[j].Lith = synth.Lithology(lith)
				if b.Wells[i].Strata[j].TopFt, err = r.Float(); err != nil {
					return b, err
				}
				if b.Wells[i].Strata[j].ThickFt, err = r.Float(); err != nil {
					return b, err
				}
				if b.Wells[i].Strata[j].GammaAPI, err = r.Float(); err != nil {
					return b, err
				}
			}
			if b.Wells[i].Gamma, err = r.Floats(); err != nil {
				return b, err
			}
		}
	default:
		return b, fmt.Errorf("%w: append kind %q", canon.ErrCorrupt, kind)
	}
	if r.Remaining() != 0 {
		return b, fmt.Errorf("%w: %d trailing bytes", canon.ErrCorrupt, r.Remaining())
	}
	if b.Rows() == 0 {
		return b, fmt.Errorf("%w: empty append batch", canon.ErrCorrupt)
	}
	return b, nil
}

// appendAck is the decoded 'K' payload.
type appendAck struct {
	Seq uint64
	Dup bool   // the batch's seq was already applied; nothing changed
	Gen uint64 // the dataset's generation after the batch
}

func encodeAppendAck(a appendAck) []byte {
	b := []byte{wireVersion}
	b = canon.AppendUint(b, a.Seq)
	if a.Dup {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return canon.AppendUint(b, a.Gen)
}

func decodeAppendAck(payload []byte) (appendAck, error) {
	var a appendAck
	r := canon.NewReader(payload)
	err := readVersion(r)
	if err != nil {
		return a, err
	}
	if a.Seq, err = r.Uint(); err != nil {
		return a, err
	}
	dup, err := r.Byte()
	if err != nil {
		return a, err
	}
	switch dup {
	case 0:
	case 1:
		a.Dup = true
	default:
		return a, canon.ErrCorrupt
	}
	if a.Gen, err = r.Uint(); err != nil {
		return a, err
	}
	return a, checkDrained(r)
}

// SeqEntry is one partition's append cursor in a 'U' report: the last
// applied sequence number and the partition's global row watermark
// (offset + local logical rows; for tuples the max over partitions is
// the next free global row ID, for other kinds it is informational).
// Kind is the dataset's data kind where the node can tell (some
// partition of the dataset holds rows locally) and 0 where it cannot —
// a restarted router unions reports across replicas to rediscover
// every dataset's kind without any local state.
type SeqEntry struct {
	Dataset   string
	Part      int
	LastSeq   uint64
	Watermark int64
	Kind      DataKind
}

// encodeSeqStateReq serializes the router's 'U' request: a dataset
// filter, "" for every partition the node holds.
func encodeSeqStateReq(dataset string) []byte {
	b := []byte{wireVersion}
	return canon.AppendString(b, dataset)
}

func decodeSeqStateReq(payload []byte) (string, error) {
	r := canon.NewReader(payload)
	if err := readVersion(r); err != nil {
		return "", err
	}
	ds, err := r.String()
	if err != nil {
		return "", err
	}
	return ds, checkDrained(r)
}

func encodeSeqState(entries []SeqEntry) []byte {
	b := []byte{wireVersion}
	b = canon.AppendUint(b, uint64(len(entries)))
	for _, e := range entries {
		b = canon.AppendString(b, e.Dataset)
		b = canon.AppendUint(b, uint64(e.Part))
		b = canon.AppendUint(b, e.LastSeq)
		b = canon.AppendUint(b, uint64(e.Watermark))
		b = canon.AppendUint(b, uint64(e.Kind))
	}
	return b
}

func decodeSeqState(payload []byte) ([]SeqEntry, error) {
	r := canon.NewReader(payload)
	if err := readVersion(r); err != nil {
		return nil, err
	}
	// An entry is at least a name length plus four fixed ints.
	n, err := r.Count(40)
	if err != nil {
		return nil, err
	}
	out := make([]SeqEntry, n)
	for i := range out {
		if out[i].Dataset, err = r.String(); err != nil {
			return nil, err
		}
		part, err := r.Uint()
		if err != nil {
			return nil, err
		}
		if part > math.MaxInt32 {
			return nil, canon.ErrCorrupt
		}
		out[i].Part = int(part)
		if out[i].LastSeq, err = r.Uint(); err != nil {
			return nil, err
		}
		wm, err := r.Uint()
		if err != nil {
			return nil, err
		}
		if wm > math.MaxInt64 {
			return nil, canon.ErrCorrupt
		}
		out[i].Watermark = int64(wm)
		kind, err := r.Uint()
		if err != nil {
			return nil, err
		}
		if kind > uint64(KindScene) {
			return nil, fmt.Errorf("%w: seq-state kind %d", canon.ErrCorrupt, kind)
		}
		out[i].Kind = DataKind(kind)
	}
	return out, checkDrained(r)
}
