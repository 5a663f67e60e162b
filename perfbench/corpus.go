package main

import (
	"math/rand"

	"textjoin"
)

// plantedTopics generates the paged workload's documents: n documents
// of about termsPerDoc distinct terms each, every term drawn from the
// document's own topic, one of topics equal slices of a vocab-term
// vocabulary. scatter assigns document i to topic i%topics, so cluster
// members are spread through the file; otherwise each topic's
// documents are stored contiguously. Two documents overlap only within
// a topic, which is what lets signature and LSH pruning act.
func plantedTopics(n, termsPerDoc, vocab, topics int, scatter bool, seed int64) []*textjoin.Document {
	r := rand.New(rand.NewSource(seed))
	width := vocab / topics
	perTopic := (n + topics - 1) / topics
	docs := make([]*textjoin.Document, n)
	for id := range docs {
		topic := id % topics
		if !scatter {
			topic = id / perTopic
		}
		length := termsPerDoc/2 + r.Intn(termsPerDoc+1)
		counts := make(map[uint32]int, length)
		for len(counts) < length {
			counts[uint32(topic*width+r.Intn(width))] = 1 + r.Intn(4)
		}
		docs[id] = textjoin.NewDocument(uint32(id), counts)
	}
	return docs
}
