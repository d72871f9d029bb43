package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"artemis/pkg/artemis"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which it sorts. Missing samples are +Inf and sort last.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(k, 0)]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (getrusage maxrss, KiB
// on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats reads the runtime counters the per-layer metrics use.
type goStats struct {
	allocs          uint64
	gcCPU, totalCPU float64
	heapBytes       uint64
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goStats{
		allocs:    s[0].Value.Uint64(),
		gcCPU:     s[1].Value.Float64(),
		totalCPU:  s[2].Value.Float64(),
		heapBytes: s[3].Value.Uint64(),
	}
}

// prom is one parsed Node.WriteMetrics scrape: sample lines keyed by
// their full series name ("name{labels}").
type prom map[string]float64

func scrape(n *artemis.Node) prom {
	var b bytes.Buffer
	n.WriteMetrics(&b)
	return parseProm(b.Bytes())
}

func parseProm(b []byte) prom {
	p := prom{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p
}

// sum adds every series of the named family (any labels).
func (p prom) sum(name string) float64 {
	t := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// max is the largest series of the named family.
func (p prom) max(name string) float64 {
	m := 0.0
	for k, v := range p {
		if (k == name || strings.HasPrefix(k, name+"{")) && v > m {
			m = v
		}
	}
	return m
}

// histQuantile estimates the q-quantile of a cumulative histogram
// family summed over its label sets, interpolating log-linearly inside
// the bucket (the buckets are decades). Returns seconds.
func (p prom) histQuantile(name string, q float64) float64 {
	buckets := map[float64]float64{}
	for k, v := range p {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound := math.Inf(1)
		if le != "+Inf" {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = f
		}
		buckets[bound] += v
	}
	bounds := make([]float64, 0, len(buckets))
	for b := range buckets {
		bounds = append(bounds, b)
	}
	slices.Sort(bounds)
	if len(bounds) == 0 || buckets[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	total := buckets[bounds[len(bounds)-1]]
	target := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		cum := buckets[b]
		if cum >= target {
			if math.IsInf(b, 1) {
				return prevBound
			}
			lo := prevBound
			if lo == 0 {
				lo = b / 10
			}
			frac := (target - prevCum) / (cum - prevCum)
			return lo * math.Pow(b/lo, frac)
		}
		prevBound, prevCum = b, cum
	}
	return prevBound
}
