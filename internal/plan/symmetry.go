package plan

import (
	"math"
	"slices"

	"orbit/internal/pp"
)

// This file finds the ranks whose replays are interchangeable. A
// rank's program depends only on its stage, on whether it holds TP
// coordinate 0 (the unsharded output biases live there), and on the
// link class and size of each group it posts on. Two ranks that agree
// on those, and whose groups in turn hold the same numbers of members
// from each such class, see identical clocks: a collective completes
// at the latest poster's clock (a max, indifferent to how many members
// posted it) plus the stream backlog, and every group of one class
// sees the same post sequence. Colour refinement computes the coarsest
// partition with that property (an equitable partition), so the
// predictor compiles and replays one representative per class.

// classes is an equitable partition of a candidate's ranks and
// groups. Classes are numbered in the order of their lowest rank.
type classes struct {
	of    []int32 // class of each rank
	reps  []int32 // lowest rank of each class, ascending
	group []int32 // lowest group id of each group's class, by group id
}

// members counts the members of group g in rank class c: the weight
// with which c's representative posts and waits on g's class.
func (cl *classes) members(g *simGroup, c int32) int32 {
	n := int32(0)
	for k := range g.size {
		if cl.of[g.member(k)] == c {
			n++
		}
	}
	return n
}

// layoutClasses computes the rank classes of layout l on cluster c.
// Knobs never change them, so a ranking computes them once per layout.
func layoutClasses(l pp.Layout, c ClusterShape) classes {
	return newClasses(l, newSimGrid(l, c.GPUsPerNode, c.Spec).groups)
}

// newClasses computes the coarsest equitable partition of the ranks
// and groups of layout l. Ranks start coloured by (stage, whether the
// TP coordinate is 0), groups by (kind, size, latency, bandwidth); both
// are refined until the class counts stop changing. The kind keeps a
// rank's groups in distinct classes: without it a rank's size-1 FSDP
// and DDP groups, or the forward and backward links between two ranks,
// would share a class and so a pending table.
func newClasses(l pp.Layout, groups []simGroup) classes {
	R, G := l.Ranks(), len(groups)
	innerN := l.TP * l.FSDP * l.DDP
	// Rank → group incidence, each rank's groups in id order.
	adjOff := make([]int32, R+1)
	for i := range groups {
		for k := range groups[i].size {
			adjOff[groups[i].member(k)+1]++
		}
	}
	for r := range R {
		adjOff[r+1] += adjOff[r]
	}
	adj := make([]int32, adjOff[R])
	fill := slices.Clone(adjOff[:R])
	for i := range groups {
		for k := range groups[i].size {
			m := groups[i].member(k)
			adj[fill[m]] = int32(i)
			fill[m]++
		}
	}

	var s refiner
	rc, gc := make([]int32, R), make([]int32, G)
	s.reset()
	for r := range R {
		tp0 := int64(0)
		if r%l.TP == 0 {
			tp0 = 1
		}
		s.keys = append(s.keys, int64(r/innerN), tp0)
		s.end()
	}
	nr := s.split(rc, 1)
	s.reset()
	for i := range groups {
		g := &groups[i]
		s.keys = append(s.keys, int64(g.kind), int64(g.size), int64(math.Float64bits(g.lat)), int64(math.Float64bits(g.bw)))
		s.end()
	}
	ng := s.split(gc, 1)

	var count, seen []int32 // members per rank colour; colours seen in the group
	for {
		// Groups by the multiset of their members' colours, as sorted
		// (colour, count) pairs.
		s.reset()
		count = append(count[:0], make([]int32, nr)...)
		for i := range groups {
			g := &groups[i]
			seen = seen[:0]
			for k := range g.size {
				c := rc[g.member(k)]
				if count[c] == 0 {
					seen = append(seen, c)
				}
				count[c]++
			}
			slices.Sort(seen)
			for _, c := range seen {
				s.keys = append(s.keys, int64(c), int64(count[c]))
				count[c] = 0
			}
			s.end()
		}
		ng2 := s.split(gc, ng)
		// Ranks by the multiset of their groups' colours.
		s.reset()
		for r := range R {
			n := len(s.keys)
			for _, g := range adj[adjOff[r]:adjOff[r+1]] {
				s.keys = append(s.keys, int64(gc[g]))
			}
			slices.Sort(s.keys[n:])
			s.end()
		}
		nr2 := s.split(rc, nr)
		if ng2 == ng && nr2 == nr {
			break
		}
		ng, nr = ng2, nr2
	}

	cl := classes{of: rc, group: make([]int32, G)}
	classOf := slices.Repeat([]int32{-1}, nr)
	for r := range R {
		c := &classOf[rc[r]]
		if *c < 0 {
			*c = int32(len(cl.reps))
			cl.reps = append(cl.reps, int32(r))
		}
		cl.of[r] = *c
	}
	repOf := slices.Repeat([]int32{-1}, ng)
	for i := range groups {
		c := &repOf[gc[i]]
		if *c < 0 {
			*c = int32(i)
		}
		cl.group[i] = *c
	}
	return cl
}

// refiner splits colour classes by per-element keys. Keys are
// variable-length int64 strings, stored back to back.
type refiner struct {
	keys         []int64
	off          []int32 // element i's key is keys[off[i]:off[i+1]]
	order, start []int32
	table        []int32 // open-addressing set of keys: element index + 1, 0 when empty
}

func (s *refiner) reset() {
	s.keys = s.keys[:0]
	s.off = append(s.off[:0], 0)
}

// end closes the current element's key.
func (s *refiner) end() { s.off = append(s.off, int32(len(s.keys))) }

func (s *refiner) key(i int32) []int64 { return s.keys[s.off[i]:s.off[i+1]] }

// split refines col, a colouring with n colours, in place: elements
// of one colour whose keys differ are split apart. New colours are
// numbered by old colour, then by first appearance; split returns
// their count.
func (s *refiner) split(col []int32, n int) int {
	// Bucket the elements by old colour.
	s.start = append(s.start[:0], make([]int32, n+1)...)
	for _, c := range col {
		s.start[c+1]++
	}
	for c := range n {
		s.start[c+1] += s.start[c]
	}
	s.order = append(s.order[:0], make([]int32, len(col))...)
	for i, c := range col {
		s.order[s.start[c]] = int32(i)
		s.start[c]++
	}
	next, lo := int32(0), int32(0)
	for c := range n {
		b := s.order[lo:s.start[c]]
		lo = s.start[c]
		// Give each distinct key of the bucket the next colour, finding
		// earlier equal keys through a hash set twice the bucket's size.
		size := 2
		for size < 2*len(b) {
			size *= 2
		}
		s.table = append(s.table[:0], make([]int32, size)...)
		for _, e := range b {
			k := s.key(e)
			h := uint64(14695981039346656037)
			for _, x := range k {
				h = (h ^ uint64(x)) * 1099511628211
			}
			for i := int(h>>32) & (size - 1); ; i = (i + 1) & (size - 1) {
				f := s.table[i] - 1
				if f < 0 {
					s.table[i] = e + 1
					col[e] = next
					next++
					break
				}
				if slices.Equal(s.key(f), k) {
					col[e] = col[f]
					break
				}
			}
		}
	}
	return int(next)
}
