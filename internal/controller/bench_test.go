package controller

import "testing"

func BenchmarkConcurrentRouteTag(b *testing.B) {
	c, err := New(64)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := c.RouteTag(i%64, (i*7)%64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
