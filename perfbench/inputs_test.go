package main

import (
	"bytes"
	"testing"
)

func TestRecordingsAreSeeded(t *testing.T) {
	a, err := recordings(2, 1, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recordings(2, 1, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := recordings(2, 1, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].data, b[i].data) {
			t.Fatalf("recording %d differs between two generations from seed 7", i)
		}
		if bytes.Equal(a[i].data, c[i].data) {
			t.Fatalf("recording %d is the same for seeds 7 and 8", i)
		}
	}
	if bytes.Equal(a[0].data, a[1].data) {
		t.Fatal("the pool's recordings are identical")
	}
}
