package main

import (
	"bytes"

	"bruck"
)

// The oracle: serial references for the three collectives, compared
// byte for byte. Each check returns the number of wrong output bytes.

// diff counts the positions where got and want differ, plus any length
// difference.
func diff(got, want []byte) int {
	if bytes.Equal(got, want) {
		return 0
	}
	n := min(len(got), len(want))
	bad := max(len(got), len(want)) - n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// checkTranspose checks an index: out.Block(i, j) == in.Block(j, i).
func checkTranspose(in, out *bruck.Buffers) int {
	bad := 0
	for i := 0; i < out.Procs(); i++ {
		for j := 0; j < out.Blocks(); j++ {
			bad += diff(out.Block(i, j), in.Block(j, i))
		}
	}
	return bad
}

// checkConcat checks a concatenation: out.Block(i, j) == in.Block(j, 0).
func checkConcat(in, out *bruck.Buffers) int {
	bad := 0
	for i := 0; i < out.Procs(); i++ {
		for j := 0; j < out.Blocks(); j++ {
			bad += diff(out.Block(i, j), in.Block(j, 0))
		}
	}
	return bad
}

// checkAllReduce checks an allreduce: every processor holds want, the
// serial sum computed when the inputs were generated.
func checkAllReduce(want []byte, out *bruck.Buffers) int {
	bad := 0
	for i := 0; i < out.Procs(); i++ {
		bad += diff(out.Proc(i), want)
	}
	return bad
}

// checkTransposeV is checkTranspose for ragged blocks.
func checkTransposeV(in, out *bruck.RaggedBuffers) int {
	bad := 0
	for i := 0; i < out.Layout().Rows(); i++ {
		for j := 0; j < out.Layout().Cols(); j++ {
			bad += diff(out.Block(i, j), in.Block(j, i))
		}
	}
	return bad
}

// checkConcatV is checkConcat for ragged contributions.
func checkConcatV(in, out *bruck.RaggedBuffers) int {
	bad := 0
	for i := 0; i < out.Layout().Rows(); i++ {
		for j := 0; j < out.Layout().Cols(); j++ {
			bad += diff(out.Block(i, j), in.Block(j, 0))
		}
	}
	return bad
}
