package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"geomob/internal/core"
	"geomob/internal/tweet"
)

// oracleAnswer computes, with the library's own Study over exactly the
// tweets the servers were given, the fields of a /v1 reply that the
// bit-for-bit contract pins: a live fold, a cluster scatter-gather and a
// restarted node must all answer what one in-memory pass answers.
//
// posted is the time-ordered feed prefix. Only the window's tweets are
// handed to the Study (it applies the window again itself), re-sorted
// into the (user, time) order a Source promises.
func oracleAnswer(posted []tweet.Tweet, q query) (map[string]any, error) {
	lo, hi := 0, len(posted)
	if !q.from.IsZero() {
		from := q.from.UnixMilli()
		lo = sort.Search(len(posted), func(i int) bool { return posted[i].TS >= from })
	}
	if !q.to.IsZero() {
		to := q.to.UnixMilli()
		hi = sort.Search(len(posted), func(i int) bool { return posted[i].TS >= to })
	}
	win := append([]tweet.Tweet(nil), posted[lo:hi]...)
	sort.Sort(tweet.ByUserTime(win))
	res, err := core.NewStudy(core.SliceSource(win)).Execute(context.Background(), q.request())
	if err != nil {
		return nil, err
	}
	switch q.endpoint {
	case "stats":
		return map[string]any{"tweets": res.Stats.Tweets, "users": res.Stats.Users}, nil
	case "population":
		return map[string]any{"twitter_users": res.Population[scaleOf[q.scale]].TwitterUsers}, nil
	case "flows":
		mr := res.Mobility[scaleOf[q.scale]]
		return map[string]any{"flows": mr.Flows.Flows, "total": mr.TotalFlow}, nil
	case "models":
		mr := res.Mobility[scaleOf[q.scale]]
		return map[string]any{"total_flow": mr.TotalFlow, "flow_pairs": mr.FlowPairs}, nil
	}
	return nil, fmt.Errorf("oracle: unknown endpoint %q", q.endpoint)
}

// checkAnswer compares a server reply with the oracle field for field.
// Both sides pass through JSON so that equal numbers compare equal
// whatever Go type produced them.
func checkAnswer(posted []tweet.Tweet, q query, reply []byte) error {
	want, err := oracleAnswer(posted, q)
	if err != nil {
		return fmt.Errorf("oracle %s: %w", q.path(), err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var wantAny, got map[string]any
	if err := errors.Join(json.Unmarshal(wantJSON, &wantAny), json.Unmarshal(reply, &got)); err != nil {
		return fmt.Errorf("%s: %w", q.path(), err)
	}
	for field, w := range wantAny {
		if !reflect.DeepEqual(got[field], w) {
			return fmt.Errorf("%s: field %q differs from the in-process Study: got %.120v want %.120v",
				q.path(), field, got[field], w)
		}
	}
	return nil
}
