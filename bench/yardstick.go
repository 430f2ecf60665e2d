package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick is a fixed piece of work the bench owns — a dependent
// walk through a 64 MiB table, inserts and look-ups in a 16 MiB
// open-addressing hash table, a sort of 256k keys, about a third of its
// 90 ms each — run right before and right after every timed round and
// around the set-ups. Each round's time-based values are reported at
// reference speed: scaled by the mean of its two readings over
// yardstickNominal, what a reading is on the reference box at its best.
//
// The reason is the box. Its speed changes for minutes at a time, on
// its own: a register-bound loop reads the same throughout, but a
// memory-bound one reads up to 1.4× slower (other tenants of the host's
// memory system, by every sign), and every workload here slows with it,
// 1.3× to 1.7× — more than any change to the program this benchmark is
// meant to judge. On a day with such phases ten runs of one binary
// spread 11–20 % between their quartiles as the clock read and 3–16 %
// at reference speed, and the medians of two interleaved sets of ten
// differed by up to 5 % and up to 2.7 % (README, "Noise and bounds").
// A reading itself varies by about 3 % between its quartiles, which is
// what scaling costs on a calm day.
//
// The yardstick is code no change to the program touches, so a gain or
// a loss in the program moves the scaled value as it moves the raw one.
// Raw values and speed factors are printed and kept in bench/out.
type yardstick struct {
	table   []uint32 // one random cycle through every entry
	slots   []uint64 // the hash table
	keys    []uint64
	scratch []uint64
	steps   int
	nominal time.Duration
	sink    uint64
	maps    [][]byte // what free unmaps
}

const (
	yardstickTableBytes = 64 << 20
	yardstickSlots      = 1 << 21 // 16 MiB, a quarter full
	yardstickKeys       = 1 << 19
	yardstickSortKeys   = 1 << 18
	yardstickSteps      = 1 << 18
	// yardstickNominal is the median of the yardstick on the reference
	// box (README, machine record) in its fast mode.
	yardstickNominal = 90 * time.Millisecond
)

// offHeap maps room for n values outside the Go heap and returns them
// with the mapping to hand to syscall.Munmap.
func offHeap[T any](n int) ([]T, []byte, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map %d values off the heap: %w", n, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), b, nil
}

// free unmaps the yardstick's tables; it must not run afterwards.
func (y *yardstick) free() {
	for _, b := range y.maps {
		if b != nil {
			syscall.Munmap(b)
		}
	}
	y.maps, y.table, y.slots, y.keys, y.scratch = nil, nil, nil, nil, nil
}

// newYardstick builds the yardstick. Below scale 1 (smoke tests) its
// table, its work and its nominal time shrink with the workloads'; such
// a reading says little about the machine, and a smoke run asks little.
func newYardstick(scale float64) (*yardstick, error) {
	scale = min(scale, 1)
	y := &yardstick{
		steps:   scaled(yardstickSteps, scale, 64),
		nominal: time.Duration(float64(yardstickNominal) * scale),
	}
	// Off the heap: the yardstick's 86 MiB must not become the
	// collector's idea of this program's live data (it would raise the
	// heap size the workload's own allocations are collected at).
	var err error
	u64 := func(n int) []uint64 {
		if err != nil {
			return nil
		}
		v, m, e := offHeap[uint64](n)
		y.maps, err = append(y.maps, m), e
		return v
	}
	var m []byte
	y.table, m, err = offHeap[uint32](scaled(yardstickTableBytes/4, scale, 1<<16))
	y.maps = append(y.maps, m)
	y.slots = u64(yardstickSlots)
	y.keys = u64(scaled(yardstickKeys, scale, 64))
	y.scratch = u64(scaled(yardstickSortKeys, scale, 32))
	if err != nil {
		y.free()
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	// Sattolo's shuffle: a permutation that is a single cycle, so a walk
	// from any entry visits all of them before it repeats.
	rng := newRNG(fixtureSeed, 0x7a4d)
	t := y.table
	for i := range t {
		t[i] = uint32(i)
	}
	for i := len(t) - 1; i > 0; i-- {
		j := rng.Intn(i)
		t[i], t[j] = t[j], t[i]
	}
	for i := range y.keys {
		y.keys[i] = rng.Uint64() | 1 // never the empty slot's 0
	}
	return y, nil
}

// run does the yardstick's work once and returns how long it took.
func (y *yardstick) run() time.Duration {
	t0 := time.Now()
	// Dependent loads, each a cache and TLB miss.
	i := uint32(y.sink % uint64(len(y.table)))
	for s := 0; s < y.steps; s++ {
		i = y.table[i]
	}
	// Hash table: insert every key, then look every key up twice.
	clear(y.slots)
	const mask = yardstickSlots - 1
	for _, k := range y.keys {
		h := (k * 0x9e3779b97f4a7c15) >> 44 & mask
		for y.slots[h] != 0 && y.slots[h] != k {
			h = (h + 1) & mask
		}
		y.slots[h] = k
	}
	found := uint64(0)
	for rep := uint64(0); rep < 2; rep++ {
		for _, k := range y.keys {
			h := ((k ^ rep) * 0x9e3779b97f4a7c15) >> 44 & mask
			for y.slots[h] != 0 && y.slots[h] != k^rep {
				h = (h + 1) & mask
			}
			found += y.slots[h] & 1
		}
	}
	// Branchy, cache-friendly compute.
	copy(y.scratch, y.keys)
	slices.Sort(y.scratch)
	y.sink = uint64(i) + found + y.scratch[0]&1
	return time.Since(t0)
}

// speedFactor is how much slower than the reference box at its best
// the machine ran between two yardstick readings.
func (y *yardstick) speedFactor(before, after time.Duration) float64 {
	return (before + after).Seconds() / 2 / y.nominal.Seconds()
}

// residentMB is what the yardstick adds to the resident set of the
// process, in MiB: its tables, touched in full.
func (y *yardstick) residentMB() float64 {
	return float64(4*len(y.table)+8*(len(y.slots)+len(y.keys)+len(y.scratch))) / (1 << 20)
}
