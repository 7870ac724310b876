package wire

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"easeio/internal/check"
)

// Packed reports: the compact form in which finished check jobs keep
// their result. A merged report is tens of KB of Go strings and slices
// (every divergence's detail and schedule); its KindReport encoding
// DEFLATE'd at BestSpeed is 6–9× smaller, and UnpackReport rebuilds a
// report equal to the packed one on every read.

// reportPacker is the pooled encode state: the raw encoding, the
// compressed output and a DEFLATE writer, all reused across packs.
type reportPacker struct {
	raw []byte
	out bytes.Buffer
	zw  *flate.Writer
}

var packers = sync.Pool{New: func() any {
	p := &reportPacker{}
	// NewWriter fails only for an invalid level.
	p.zw, _ = flate.NewWriter(&p.out, flate.BestSpeed)
	return p
}}

// PackReport returns r's KindReport encoding, DEFLATE'd.
func PackReport(r *check.Report) []byte {
	p := packers.Get().(*reportPacker)
	defer packers.Put(p)
	p.raw = AppendReport(p.raw[:0], *r)
	p.out.Reset()
	p.zw.Reset(&p.out)
	// Writes into a bytes.Buffer cannot fail.
	_, _ = p.zw.Write(p.raw)
	_ = p.zw.Close()
	return bytes.Clone(p.out.Bytes())
}

// UnpackReport decodes a PackReport result.
func UnpackReport(b []byte) (*check.Report, error) {
	zr := flate.NewReader(bytes.NewReader(b))
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("wire: inflate packed report: %w", err)
	}
	r, err := DecodeReport(raw)
	if err != nil {
		return nil, err
	}
	return &r, nil
}
