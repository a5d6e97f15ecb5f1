package store

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"conprobe/internal/simnet"
)

// heldView is a view taken during a scenario and the IDs it read then.
type heldView struct {
	label string
	view  []Entry
	ids   []string
}

// TestViewStableAcrossUpdates holds every view a scenario takes and
// checks each still reads what it read when taken, after each of the
// events that change a replica's timeline: an in-place append, a
// merge-path insert (an out-of-order CreatedAt under fbgroup's one-second
// truncation with reversed ties), a Reset and a BeginEpoch.
func TestViewStableAcrossUpdates(t *testing.T) {
	for _, order := range []OrderKind{OrderTimestamp, OrderHybrid, OrderArrival} {
		t.Run(order.String(), func(t *testing.T) {
			s, c, _ := newSimCluster(t, Config{
				Mode:   Strong,
				Sites:  []simnet.Site{simnet.DCWest},
				Policy: TimestampPolicy{Precision: time.Second, ReverseTies: true},
				Order:  order,
			})
			var held []heldView
			take := func(label string) []Entry {
				v, err := c.View(simnet.DCWest)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range held {
					if got := idsOf(h.view); !eq(got, h.ids) {
						t.Fatalf("after %s: view %s reads %v, read %v when taken", label, h.label, got, h.ids)
					}
				}
				held = append(held, heldView{label, v, idsOf(v)})
				return v
			}
			write := func(id string) {
				if _, err := c.Write(simnet.DCWest, id, "a", ""); err != nil {
					t.Fatal(err)
				}
			}
			s.Go(func() {
				s.Sleep(100 * time.Millisecond)
				var prev []Entry
				for i := 1; i <= 4; i++ {
					write(fmt.Sprintf("w%d", i))
					v := take(fmt.Sprintf("append w%d", i))
					if order == OrderTimestamp && i == 4 && &v[0] != &prev[0] {
						t.Error("fourth append did not extend the third view's array in place")
					}
					prev = v
					s.Sleep(time.Second)
				}
				// Same second as w5, later arrival: reversed ties put w6
				// first, so under timestamp order it merges into the
				// timeline instead of appending.
				write("w5")
				s.Sleep(100 * time.Millisecond)
				write("w6")
				if v := take("merge w6"); order == OrderTimestamp && v[len(v)-1].ID != "w5" {
					t.Errorf("w6 did not sort before w5: %v", idsOf(v))
				}
				c.Reset()
				take("reset")
				write("w7")
				take("write after reset")
				c.BeginEpoch(1000)
				take("begin epoch")
				write("w8")
				take("write after begin epoch")
				take("final check")
			})
			s.Wait()
		})
	}
}

// TestViewSharedBetweenApplies checks reads with no apply between them
// share one view, that an apply replaces it, and that Read still hands
// out private copies.
func TestViewSharedBetweenApplies(t *testing.T) {
	s, c, _ := newSimCluster(t, Config{Mode: Strong, Sites: []simnet.Site{simnet.DCWest}})
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "m1", "a", ""); err != nil {
			t.Error(err)
			return
		}
		a, _ := c.View(simnet.DCWest)
		b, _ := c.View(simnet.DCWest)
		if len(a) != 1 || &a[0] != &b[0] {
			t.Error("two reads with no apply between them did not share a view")
		}
		if cap(a) != len(a) {
			t.Errorf("view capacity %d beyond its length %d: an append would write into the store", cap(a), len(a))
		}
		r, _ := c.Read(simnet.DCWest)
		if &r[0] == &a[0] {
			t.Error("Read returned the shared view instead of a copy")
		}
		if _, err := c.Write(simnet.DCWest, "m2", "a", ""); err != nil {
			t.Error(err)
			return
		}
		d, _ := c.View(simnet.DCWest)
		if len(d) != 2 || len(a) != 1 || a[0].ID != "m1" {
			t.Errorf("after an apply: old view %v, new view %v", idsOf(a), idsOf(d))
		}
	})
	s.Wait()
}

// refDue is container/heap's reference for dueHeap.
type refDue []due[int]

func (q refDue) Len() int { return len(q) }
func (q refDue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q refDue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refDue) Push(x any)   { *q = append(*q, x.(due[int])) }
func (q *refDue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// TestDueHeapMatchesContainerHeap drives the typed heap and
// container/heap through the same random push/pop sequences — few
// distinct due times, so ties on time are common and the sequence
// number decides — and requires the same pop order and the same heap
// layout throughout.
func TestDueHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got dueHeap[int]
		var want refDue
		seq := uint64(0)
		for op := 0; op < 400; op++ {
			if len(want) == 0 || rng.Intn(3) > 0 {
				seq++
				x := due[int]{at: epoch0.Add(time.Duration(rng.Intn(8)) * time.Millisecond), seq: seq, v: op}
				got.push(x)
				heap.Push(&want, x)
			} else {
				g, w := got.pop(), heap.Pop(&want).(due[int])
				if g != w {
					t.Fatalf("seed %d op %d: popped %+v, container/heap popped %+v", seed, op, g, w)
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d op %d: layout differs at %d", seed, op, i)
				}
			}
		}
		got.reset()
		if len(got) != 0 || cap(got) == 0 {
			t.Fatalf("reset: len %d cap %d, want empty with its array kept", len(got), cap(got))
		}
	}
}
