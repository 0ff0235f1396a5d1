package main

import (
	"math"
	"math/bits"
	"time"
)

// subBits sets the histogram's resolution: 2^subBits buckets per power
// of two, so a bucket spans less than 1/128 of its lower bound.
const subBits = 7

// hist is a log-linear histogram of non-negative durations in
// nanoseconds. Values below 2^subBits get one bucket each; above, every
// octave is split into 2^subBits equal buckets. Memory is bounded by
// the largest value recorded, not by the sample count.
type hist struct {
	counts   []uint64
	n        uint64
	min, max int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketRange returns bucket b's lower bound and width.
func bucketRange(b int) (low, width int64) {
	if b < 1<<subBits {
		return int64(b), 1
	}
	shift := b>>subBits - 1
	sub := int64(b & (1<<subBits - 1))
	return (1<<subBits + sub) << shift, 1 << shift
}

func (h *hist) record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile (rank ceil(q·n)),
// interpolated by rank inside its bucket, so it is within one bucket
// width of the exact sample. It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for b, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		low, width := bucketRange(b)
		v := float64(low) + float64(width)*(float64(rank-cum)-0.5)/float64(c)
		v = math.Max(float64(h.min), math.Min(float64(h.max), v))
		return time.Duration(v)
	}
	return time.Duration(h.max)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
