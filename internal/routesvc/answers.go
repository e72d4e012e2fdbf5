package routesvc

import (
	"fmt"
	"net/url"
	"strings"
	"sync"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// Answers is the shape of a /route/batch response, chosen per request
// with the answers query parameter.
//
// By the link-decode rule (Lemma A1.1) a TSDT tag and its source fix the
// whole route, and by Theorem 3.1 an SSDT tag is the destination
// address, so a requester that kept its request needs only the tag back:
// it can echo net, src, dst and scheme itself and walk the path in a few
// nanoseconds. Client.RouteBatch always asks for TagAnswers and
// completes them; curl users, who keep nothing, get FullAnswers.
type Answers uint8

const (
	// FullAnswers (no answers parameter): every item echoes its request's
	// net, src, dst and canonical scheme and carries tag, path, epoch and
	// the cached flag, or its error and code.
	FullAnswers Answers = iota
	// TagAnswers (?answers=tags): every item is {"tag":…,"epoch":…} or
	// {"error":…,"code":…}, in request order, and the body is
	// {"responses":[…],"epoch":N}.
	TagAnswers
)

// ParseAnswers reads the answers option of a /route/batch request from
// its raw query: absent means FullAnswers, "tags" TagAnswers, and any
// other value (or more than one) is ErrInvalid. Other parameters are
// ignored, as they always were.
func ParseAnswers(rawQuery string) (Answers, error) {
	switch rawQuery {
	case "":
		return FullAnswers, nil
	case "answers=tags":
		return TagAnswers, nil
	}
	q, _ := url.ParseQuery(rawQuery)
	vs, ok := q["answers"]
	switch {
	case !ok:
		return FullAnswers, nil
	case len(vs) == 1 && vs[0] == "tags":
		return TagAnswers, nil
	}
	return FullAnswers, fmt.Errorf("%w: answers=%s (want answers=tags or none)", ErrInvalid, strings.Join(vs, ","))
}

// BatchPath is the /route/batch request path that asks for a.
func (a Answers) BatchPath() string {
	if a == TagAnswers {
		return "/route/batch?answers=tags"
	}
	return "/route/batch"
}

// batchDecode is decodeTagAnswers' pooled working memory: the answer
// items as decoded, and the tag bytes with the item each tag belongs to.
type batchDecode struct {
	items []RouteJSON
	text  []byte
	tags  []tagSpan
}

// tagSpan places a tag cut from the answer's tag text: it ends at end,
// where the previous one ends it starts, and it belongs to item i.
type tagSpan struct{ i, end int }

var batchDecodePool = sync.Pool{New: func() any { return new(batchDecode) }}

// decodeTagAnswers decodes a tag-shape /route/batch body answering reqs
// and completes it into b: every item gets its request's net, src and
// dst and the canonical scheme, and every tag its path, the tag's walk
// from the item's source. The answer's memory is per batch, not per
// item: Responses has its exact length, the paths share one exact-size
// backing array, each capped at its own length, and the tags are
// substrings of one string (a tag with an escape is a string of its
// own). Cached and Coalesced stay false.
//
// A body that does not decode, answers another number of items, or
// carries an item with neither a tag nor an error, a tag that does not
// parse or a source outside the tag's network is an error.
func decodeTagAnswers(body []byte, reqs []RouteJSON, b *BatchJSON) error {
	sc := batchDecodePool.Get().(*batchDecode)
	d := wireDec{b: body, tagMode: strText, text: sc.text[:0]}
	items, tags := sc.items[:0], sc.tags[:0]
	textEnd := 0
	epoch, err := d.batch(batchSpec{responses: answerItems, epoch: true},
		func(_ bool, _ []byte, r *RouteJSON) error {
			if len(d.text) > textEnd {
				textEnd = len(d.text)
				tags = append(tags, tagSpan{i: len(items), end: textEnd})
			}
			items = append(items, *r)
			return nil
		})
	if err == nil && len(items) != len(reqs) {
		err = fmt.Errorf("%d answers for %d requests", len(items), len(reqs))
	}
	if err == nil {
		var out []RouteJSON
		if len(reqs) > 0 {
			out = make([]RouteJSON, len(reqs))
		}
		for i := range out {
			rq, it := &reqs[i], &items[i]
			scheme := rq.Scheme
			if s, err := ParseScheme(scheme); err == nil {
				scheme = s.String()
			}
			out[i] = RouteJSON{Net: rq.Net, Src: rq.Src, Dst: rq.Dst, Scheme: scheme,
				Tag: it.Tag, Epoch: it.Epoch, Error: it.Error, Code: it.Code}
		}
		text, start := string(d.text), 0
		for _, t := range tags {
			out[t.i].Tag = text[start:t.end]
			start = t.end
		}
		if err = expandPaths(out); err == nil {
			b.Responses, b.Epoch = out, epoch
		}
	}
	clear(items)
	if cap(items) <= maxPooledItems && cap(d.text) <= maxPooledWire {
		sc.items, sc.text, sc.tags = items, d.text, tags
		batchDecodePool.Put(sc)
	}
	return err
}

// pathBlock is expandPaths' working memory: one 64-lane block and the
// items its lanes came from, pooled, since a LaneBlock is a few KiB.
type pathBlock struct {
	lb    core.LaneBlock
	idx   [core.Lanes]int
	srcs  [core.Lanes]int
	tags  [core.Lanes]core.Tag
	paths [core.Lanes]core.PackedPath
}

var pathBlockPool = sync.Pool{New: func() any { return new(pathBlock) }}

// expandPaths sets the Path of every item of out that has a tag and no
// error to the tag's walk from the item's Src: n+1 switches for a 2n-bit
// tag, all in one exact-size array, computed 64 lanes at a time by the
// sliced TSDT kernel (an SSDT tag is a TSDT tag with zero state bits).
// Consecutive tags of one width share a block.
func expandPaths(out []RouteJSON) error {
	total := 0
	for i := range out {
		r := &out[i]
		switch {
		case r.Error != "":
		case r.Tag == "":
			return fmt.Errorf("answer %d has neither a tag nor an error", i)
		case len(r.Tag)%2 != 0 || len(r.Tag) > 60:
			return fmt.Errorf("answer %d: tag %q is not a 2n-bit tag of a network of 2..2^30 switches", i, r.Tag)
		default:
			total += len(r.Tag)/2 + 1
		}
	}
	if total == 0 {
		return nil
	}
	ints := make([]int, total)
	pb := pathBlockPool.Get().(*pathBlock)
	defer pathBlockPool.Put(pb)
	var p topology.Params
	off, k := 0, 0
	flush := func() error {
		if k == 0 {
			return nil
		}
		if err := pb.lb.LoadTags(p, pb.srcs[:k], pb.tags[:k]); err != nil {
			return err // unreachable: every lane's tag and source were checked
		}
		core.RouteTSDTSliced(p, &pb.lb)
		pp := pb.lb.PathsInto(pb.paths[:0])
		w := p.Stages() + 1
		for l := 0; l < k; l++ {
			pp[l].SwitchesInto(p, ints[off:off])
			out[pb.idx[l]].Path = ints[off : off+w : off+w]
			off += w
		}
		k = 0
		return nil
	}
	for i := range out {
		r := &out[i]
		if r.Error != "" {
			continue
		}
		n := len(r.Tag) / 2
		if n != p.Stages() {
			if err := flush(); err != nil {
				return err
			}
			var err error
			if p, err = topology.NewParams(1 << n); err != nil {
				return fmt.Errorf("answer %d: tag %q: %v", i, r.Tag, err)
			}
		}
		t, err := core.ParseTag(n, r.Tag)
		if err != nil {
			return fmt.Errorf("answer %d: %v", i, err)
		}
		if !p.ValidSwitch(r.Src) {
			return fmt.Errorf("answer %d: source %d outside the %d-switch network of tag %q", i, r.Src, p.Size(), r.Tag)
		}
		pb.idx[k], pb.srcs[k], pb.tags[k] = i, r.Src, t
		if k++; k == core.Lanes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
