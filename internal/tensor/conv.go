package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride, Pad   int
	OutH, OutW    int // derived output spatial dims
}

// NewConvGeom validates and completes a convolution geometry.
func NewConvGeom(inC, inH, inW, kh, kw, stride, pad int) (ConvGeom, error) {
	if stride <= 0 {
		return ConvGeom{}, fmt.Errorf("tensor: conv stride must be positive, got %d", stride)
	}
	if pad < 0 {
		return ConvGeom{}, fmt.Errorf("tensor: conv pad must be non-negative, got %d", pad)
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		return ConvGeom{}, fmt.Errorf("tensor: conv kernel %dx%d does not fit input %dx%d (pad %d)", kh, kw, inH, inW, pad)
	}
	return ConvGeom{InC: inC, InH: inH, InW: inW, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: outH, OutW: outW}, nil
}

// Im2col unfolds a single image (C,H,W laid out contiguously in img) into a
// column matrix of shape (C*KH*KW, OutH*OutW) written into cols, which must
// have exactly that capacity. Padding positions contribute zeros.
func (g ConvGeom) Im2col(img []float64, cols []float64) {
	colW := g.OutH * g.OutW
	if len(cols) != g.InC*g.KH*g.KW*colW {
		panic(fmt.Sprintf("tensor: Im2col cols length %d, want %d", len(cols), g.InC*g.KH*g.KW*colW))
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		chImg := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				dst := cols[row*colW : (row+1)*colW]
				p := 0
				for oy := 0; oy < g.OutH; oy++ {
					iy := oy*g.Stride + ki - g.Pad
					if iy < 0 || iy >= g.InH {
						for ox := 0; ox < g.OutW; ox++ {
							dst[p] = 0
							p++
						}
						continue
					}
					rowImg := chImg[iy*g.InW : (iy+1)*g.InW]
					for ox := 0; ox < g.OutW; ox++ {
						ix := ox*g.Stride + kj - g.Pad
						if ix < 0 || ix >= g.InW {
							dst[p] = 0
						} else {
							dst[p] = rowImg[ix]
						}
						p++
					}
				}
				row++
			}
		}
	}
}

// Unfold returns Im2col of a single image (C,H,W laid out contiguously in
// img) as a new (C*KH*KW, OutH*OutW) tensor. Im2col writes every element, so
// the storage skips the zero fill.
func (g ConvGeom) Unfold(img []float64) *Tensor {
	cols := empty(g.InC*g.KH*g.KW, g.OutH*g.OutW)
	g.Im2col(img, cols.data)
	return cols
}

// Col2im folds a column matrix (C*KH*KW, OutH*OutW) back into image
// gradients, accumulating overlapping contributions into img (C,H,W).
// img is expected to be zeroed by the caller when a fresh gradient is wanted.
func (g ConvGeom) Col2im(cols []float64, img []float64) {
	colW := g.OutH * g.OutW
	row := 0
	for c := 0; c < g.InC; c++ {
		chImg := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				src := cols[row*colW : (row+1)*colW]
				p := 0
				for oy := 0; oy < g.OutH; oy++ {
					iy := oy*g.Stride + ki - g.Pad
					if iy < 0 || iy >= g.InH {
						p += g.OutW
						continue
					}
					rowImg := chImg[iy*g.InW : (iy+1)*g.InW]
					for ox := 0; ox < g.OutW; ox++ {
						ix := ox*g.Stride + kj - g.Pad
						if ix >= 0 && ix < g.InW {
							rowImg[ix] += src[p]
						}
						p++
					}
				}
				row++
			}
		}
	}
}
