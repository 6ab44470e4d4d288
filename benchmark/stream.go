package main

import "math/rand"

// class is one kind of operation in a workload's block, with how many
// times it occurs per block.
type class struct {
	name     string
	perBlock int
}

// blockStream is a client's endless op sequence: the workload's fixed
// block, reshuffled from the seed for every repetition.  Because every
// block holds exactly the same multiset of classes, class proportions
// do not depend on the seed, and any count taken over whole blocks does
// not depend on how many blocks a window happened to fit.
type blockStream struct {
	rng   *rand.Rand
	block []int
}

func newBlockStream(classes []class, seed int64, client int) *blockStream {
	s := &blockStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)))}
	for ci, c := range classes {
		for i := 0; i < c.perBlock; i++ {
			s.block = append(s.block, ci)
		}
	}
	return s
}

// next returns the next block's class indices.  The slice is reused by
// the following call.
func (s *blockStream) next() []int {
	s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	return s.block
}

func blockLen(classes []class) int {
	n := 0
	for _, c := range classes {
		n += c.perBlock
	}
	return n
}
