package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// Histogram is an HDR-style log-linear histogram for latency-class values:
// each power-of-two octave is split into 32 linear sub-buckets, so any
// recorded value lands in a bucket whose width is at most ~3.1% of the
// value. That makes quantiles cheap (one bucket walk), merges exact
// (bucket-wise addition), and the memory bound small (≲2k buckets across
// the whole int64 range), while the canonical JSON encoding stays a pure
// function of the recorded multiset — equal histograms encode to equal
// bytes, the same determinism contract Series carries.
//
// Values are non-negative integers in whatever unit the caller picks (the
// service records microseconds); negatives clamp to zero rather than
// corrupting the bucket index.
type Histogram struct {
	counts []uint64 // dense, indexed by histIndex, grown on demand
	total  uint64
	sum    int64
}

// histSubBits fixes the sub-bucket resolution: 2^5 = 32 linear sub-buckets
// per octave. It is a structural constant of the encoding — changing it
// changes every bucket index — so it is pinned in both the JSON and binary
// forms and validated on decode.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histIndex maps a non-negative value to its bucket. Values below one full
// octave of sub-buckets get exact unit buckets; above that, the top
// histSubBits bits below the leading bit select the sub-bucket.
func histIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	return (exp-histSubBits+1)*histSubCount + int((v>>(uint(exp-histSubBits)))&(histSubCount-1))
}

// histLower returns the smallest value bucket i can hold — the value
// Quantile reports for a rank that lands in the bucket.
func histLower(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	exp := i/histSubCount + histSubBits - 1
	return int64(histSubCount+i%histSubCount) << uint(exp-histSubBits)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := histIndex(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.total++
	h.sum += v
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the exact sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Quantile returns the value at quantile p in [0, 1]: the lower bound of
// the bucket containing the rank-⌈p·count⌉ recorded value, so the answer
// under-reports by at most one bucket width (~3.1% relative). Deterministic
// for a given multiset, and 0 for an empty histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return float64(histLower(i))
		}
	}
	return float64(histLower(len(h.counts) - 1))
}

// Merge adds o's recorded values into h. Merging is exact — bucket-wise
// addition — so it is associative and commutative, and merging per-client
// histograms equals recording every value into one.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// Cumulative returns the distribution at power-of-two boundaries for
// exposition: bounds[k] is 2^k (covering the recorded range) and cum[k]
// counts the recorded values strictly below it. Empty for an empty
// histogram.
func (h *Histogram) Cumulative() (bounds []int64, cum []uint64) {
	maxIdx := -1
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i] != 0 {
			maxIdx = i
			break
		}
	}
	if maxIdx < 0 {
		return nil, nil
	}
	var running uint64
	next := 0 // first bucket index not yet folded into running
	for bound := int64(1); ; bound <<= 1 {
		edge := histIndex(bound) // buckets below edge hold values < bound
		for ; next < edge && next < len(h.counts); next++ {
			running += h.counts[next]
		}
		bounds = append(bounds, bound)
		cum = append(cum, running)
		// The shift guard stops before bound overflows int64 (values at the
		// top of the range end up covered by the +Inf bucket exposition adds).
		if bound > histLower(maxIdx) || bound >= 1<<62 {
			return bounds, cum
		}
	}
}

// wireHist is the canonical JSON shape: the structural sub-bucket constant,
// the totals, and the non-empty buckets as [index, count] pairs in
// ascending index order.
type wireHist struct {
	SubBits int         `json:"sub_bits"`
	Count   uint64      `json:"count"`
	Sum     int64       `json:"sum"`
	Buckets [][2]uint64 `json:"buckets"`
}

// MarshalJSON emits the canonical encoding: equal histograms (same recorded
// multiset) encode to equal bytes.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	w := wireHist{SubBits: histSubBits, Count: h.total, Sum: h.sum, Buckets: [][2]uint64{}}
	for i, c := range h.counts {
		if c != 0 {
			w.Buckets = append(w.Buckets, [2]uint64{uint64(i), c})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses bytes produced by MarshalJSON, validating the
// structural constant, bucket ordering, and that the bucket counts sum to
// the header count.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w wireHist
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.SubBits != histSubBits {
		return fmt.Errorf("stats: histogram sub_bits %d, want %d", w.SubBits, histSubBits)
	}
	n := &Histogram{total: w.Count, sum: w.Sum}
	last := -1
	var seen uint64
	for _, b := range w.Buckets {
		i := int(b[0])
		if i <= last {
			return fmt.Errorf("stats: histogram buckets out of order at index %d", i)
		}
		last = i
		if i >= len(n.counts) {
			grown := make([]uint64, i+1)
			copy(grown, n.counts)
			n.counts = grown
		}
		n.counts[i] = b[1]
		seen += b[1]
	}
	if seen != w.Count {
		return fmt.Errorf("stats: histogram buckets sum to %d, header says %d", seen, w.Count)
	}
	*h = *n
	return nil
}

// Encode returns the canonical JSON bytes.
func (h *Histogram) Encode() ([]byte, error) { return json.Marshal(h) }

// DecodeHistogram parses bytes produced by Encode.
func DecodeHistogram(data []byte) (*Histogram, error) {
	var h Histogram
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("stats: decode histogram: %w", err)
	}
	return &h, nil
}
