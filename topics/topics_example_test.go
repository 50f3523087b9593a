package topics_test

import (
	"fmt"

	"github.com/dcslib/dcs/topics"
)

// Example mines a trend from two tiny corpora.
func Example() {
	era1 := []string{
		"mining association rules",
		"fast mining of association rules",
		"association rules with constraints",
		"time series indexing",
	}
	era2 := []string{
		"community detection in social networks",
		"influence in social networks",
		"social networks at scale",
		"time series indexing",
	}
	m := topics.Build(era1, era2, topics.Options{})
	fmt.Println("emerging:", m.Emerging(1)[0].String())
	fmt.Println("disappearing:", m.Disappearing(1)[0].String())
	// Output:
	// emerging: social (0.5), networks (0.5)
	// disappearing: mining (0.2), association (0.4), rules (0.4)
}

func ExampleTokenize() {
	fmt.Println(topics.Tokenize("The Large-Scale Mining of Graphs"))
	// Output:
	// [large scale mining graphs]
}
