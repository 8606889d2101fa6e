package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want int64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 7},
		{Pt(-2, -3), Pt(2, 3), 10},
		{Pt(5, 5), Pt(1, 9), 8},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); got != c.want {
			t.Errorf("Dist(%v,%v) = %d, want %d", c.p, c.q, got, c.want)
		}
		if got := Dist(c.q, c.p); got != c.want {
			t.Errorf("Dist not symmetric for %v,%v", c.p, c.q)
		}
	}
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int32) bool {
		a, b, c := Pt(int64(ax), int64(ay)), Pt(int64(bx), int64(by)), Pt(int64(cx), int64(cy))
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{Pt(3, 1), Pt(-1, 4), Pt(2, 2)}
	r := BoundingBox(pts)
	want := Rect{MinX: -1, MinY: 1, MaxX: 3, MaxY: 4}
	if r != want {
		t.Fatalf("BoundingBox = %+v, want %+v", r, want)
	}
	if r.HalfPerimeter() != 7 {
		t.Errorf("HalfPerimeter = %d, want 7", r.HalfPerimeter())
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("bounding box does not contain %v", p)
		}
	}
}

func TestBoundingBoxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BoundingBox(nil) did not panic")
		}
	}()
	BoundingBox(nil)
}

func TestRectProject(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}
	cases := []struct {
		p, want Point
		dist    int64
	}{
		{Pt(3, 3), Pt(3, 3), 0},
		{Pt(-2, 3), Pt(0, 3), 2},
		{Pt(12, 7), Pt(10, 5), 4},
		{Pt(5, -1), Pt(5, 0), 1},
		{Pt(-1, -1), Pt(0, 0), 2},
	}
	for _, c := range cases {
		if got := r.Project(c.p); got != c.want {
			t.Errorf("Project(%v) = %v, want %v", c.p, got, c.want)
		}
		if got := r.DistToRect(c.p); got != c.dist {
			t.Errorf("DistToRect(%v) = %d, want %d", c.p, got, c.dist)
		}
	}
}

func TestRectProjectIsClosestPoint(t *testing.T) {
	// Property: the projection is at least as close as any sampled point in r.
	rng := rand.New(rand.NewSource(1))
	r := Rect{MinX: -5, MinY: -3, MaxX: 8, MaxY: 6}
	for i := 0; i < 200; i++ {
		p := Pt(rng.Int63n(40)-20, rng.Int63n(40)-20)
		d := r.DistToRect(p)
		for j := 0; j < 50; j++ {
			q := Pt(r.MinX+rng.Int63n(r.Width()+1), r.MinY+rng.Int63n(r.Height()+1))
			if Dist(p, q) < d {
				t.Fatalf("projection of %v not closest: %v is closer", p, q)
			}
		}
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{-1, 1, 1, 5}
	u := a.Union(b)
	want := Rect{-1, 0, 2, 5}
	if u != want {
		t.Fatalf("Union = %+v, want %+v", u, want)
	}
}

func TestHPWL(t *testing.T) {
	if got := HPWL(); got != 0 {
		t.Errorf("HPWL() = %d, want 0", got)
	}
	if got := HPWL(Pt(1, 1)); got != 0 {
		t.Errorf("HPWL single = %d, want 0", got)
	}
	if got := HPWL(Pt(0, 0), Pt(3, 4)); got != 7 {
		t.Errorf("HPWL two pts = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{5}, 5},
		{[]int64{1, 9}, 1},
		{[]int64{3, 1, 2}, 2},
		{[]int64{4, 4, 1, 9}, 4},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMedianMinimizesL1(t *testing.T) {
	// Property: the componentwise median minimises total L1 distance
	// over sampled candidates.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 5+rng.Intn(6))
		for i := range pts {
			pts[i] = Pt(rng.Int63n(100), rng.Int63n(100))
		}
		xs := make([]int64, len(pts))
		ys := make([]int64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		m := Pt(Median(xs), Median(ys))
		sum := func(q Point) int64 {
			var s int64
			for _, p := range pts {
				s += Dist(p, q)
			}
			return s
		}
		best := sum(m)
		for j := 0; j < 100; j++ {
			q := Pt(rng.Int63n(100), rng.Int63n(100))
			if sum(q) < best {
				t.Fatalf("median %v not optimal: %v has sum %d < %d", m, q, sum(q), best)
			}
		}
	}
}

func TestMeet(t *testing.T) {
	if got := Meet(Pt(3, 7), Pt(5, 2)); got != Pt(3, 2) {
		t.Errorf("Meet = %v, want (3,2)", got)
	}
}

func TestSortUnique(t *testing.T) {
	got := SortUnique([]int64{3, 1, 3, 2, 1})
	want := []int64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("SortUnique = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortUnique = %v, want %v", got, want)
		}
	}
	if out := SortUnique(nil); len(out) != 0 {
		t.Errorf("SortUnique(nil) = %v", out)
	}
}

func TestDedupPoints(t *testing.T) {
	in := []Point{Pt(1, 1), Pt(2, 2), Pt(1, 1), Pt(3, 3), Pt(2, 2)}
	out := DedupPoints(in)
	if len(out) != 3 || out[0] != Pt(1, 1) || out[1] != Pt(2, 2) || out[2] != Pt(3, 3) {
		t.Fatalf("DedupPoints = %v", out)
	}
}

func TestMinMaxAbs(t *testing.T) {
	if Min64(2, -3) != -3 || Max64(2, -3) != 2 || Abs64(-5) != 5 || Abs64(5) != 5 {
		t.Fatal("Min64/Max64/Abs64 basic cases failed")
	}
}
