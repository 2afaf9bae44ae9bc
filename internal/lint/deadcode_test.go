package lint

import "testing"

func TestDeadCode(t *testing.T) {
	fixtures := []fixture{
		{name: "orphans", src: `
package a

type T struct{}

func helper() int { return 1 } // want: deadcode

func (T) stale() {} // want: deadcode

// countdown only calls itself, which is not a reference.
func countdown(n int) int { // want: deadcode
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

func Exported() {}
`},
		{name: "referenced_clean", src: `
package a

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is reached only through the shape interface.
func (s square) area() float64 { return s.side * s.side }

func double(x float64) float64 { return 2 * x }

func (s *square) grow() { s.side = double(s.side) }

var hook = (*square).grow

func Total(shapes []shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.area()
	}
	return sum
}

func init() {}
`},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { checkFixture(t, DeadCode, fx) })
	}
}
