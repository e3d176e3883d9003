package main

import (
	"errors"
	"testing"

	"repro/internal/stream"
)

func refResults() []stream.Result {
	return []stream.Result{
		{Window: 0, Events: 5, Class: 3},
		{Window: 1, Events: 7, Class: 1},
		{Window: 2, Events: 0, Class: 3},
	}
}

func TestOracle(t *testing.T) {
	cases := []struct {
		name  string
		got   func([]stream.Result) []stream.Result
		n     int
		err   error
		wantF int
	}{
		{"all correct", func(r []stream.Result) []stream.Result { return r }, 3, nil, 0},
		{"wrong class", func(r []stream.Result) []stream.Result { r[1].Class = 4; return r }, 3, nil, 1},
		{"wrong event count", func(r []stream.Result) []stream.Result { r[2].Events = 9; return r }, 3, nil, 1},
		{"out of order", func(r []stream.Result) []stream.Result { r[0], r[1] = r[1], r[0]; return r }, 3, nil, 3},
		{"repeated window", func(r []stream.Result) []stream.Result { return []stream.Result{r[0], r[1], r[1], r[2]} }, 3, nil, 1},
		{"missing window", func(r []stream.Result) []stream.Result { return r[:2] }, 2, nil, 3},
		{"session error", func(r []stream.Result) []stream.Result { return r }, 3, errors.New("reset"), 3},
	}
	for _, tc := range cases {
		c := windowCheck{ref: refResults()}
		for _, r := range tc.got(refResults()) {
			c.observe(r)
		}
		if got := c.failed(tc.n, tc.err); got != tc.wantF {
			t.Errorf("%s: failed = %d, want %d", tc.name, got, tc.wantF)
		}
	}
}
