package main

import (
	"os"
	"strconv"
	"strings"
)

// The box this benchmark runs on is a two-core VM on a shared host, and for
// minutes at a time the host gives the guest's cores to someone else: the
// steal column of /proc/stat gained 390 s in the 100 minutes this file was
// written in, and while it climbs every wall-clock number climbs with it
// (serve-hot fell from 7 000 to 2 000 requests per second and came back,
// with nothing changed inside the guest). Ten runs that straddle such a
// stretch spread by 25-45 % of their median; ten that miss it, by 7 %.
//
// The kernel says how much was taken, so the benchmark reads it. cpuTimes
// is the guest-wide accounting of /proc/stat's first line; over a timed
// phase, granted = busy / (busy + stolen) is the share of the CPU time the
// guest asked for that it was really given. The timed end-to-end metrics
// are reported at that share — time × granted, rate ÷ granted: what the
// phase would have read on the same box left alone — and the raw readings
// and the share are reported beside them (loadgen.raw_*, loadgen.cpu_share).
// What stealing does not explain (a busy sibling hyperthread slows the
// guest without taking its core) stays in the numbers.
type cpuTimes struct {
	busy, stolen int64 // USER_HZ ticks, summed over the guest's CPUs
}

// readCPUTimes reads the counters since boot. A /proc/stat that cannot be
// read or parsed yields zeros, and so a share of 1: the raw reading.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		switch i {
		case 0, 1, 2, 5, 6: // user, nice, system, irq, softirq
			t.busy += v
		case 7:
			t.stolen = v
		}
	}
	return t
}

func (t cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{t.busy - o.busy, t.stolen - o.stolen} }
func (t cpuTimes) add(o cpuTimes) cpuTimes { return cpuTimes{t.busy + o.busy, t.stolen + o.stolen} }

// granted is the share of the demanded CPU time the guest was given.
func (t cpuTimes) granted() float64 {
	if t.busy <= 0 || t.stolen <= 0 {
		return 1
	}
	return float64(t.busy) / float64(t.busy+t.stolen)
}
