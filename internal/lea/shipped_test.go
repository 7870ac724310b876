package lea_test

import (
	"testing"

	"easeio/internal/apps"
	"easeio/internal/lea"
	"easeio/internal/task"
)

// firRecorder records the LEA FIR commands an I/O site issues.
type firRecorder struct {
	task.ExecStub
	cmds [][5]int
}

func (r *firRecorder) LEAFir(inOff, coefOff, outOff, inLen, taps int) {
	r.cmds = append(r.cmds, [5]int{inOff, coefOff, outOff, inLen, taps})
}

// TestShippedFIRCommandsTakeVectorPath guards the shipped filters' fast
// path: every FIR command the fir and weather apps issue, with the
// coefficients its site filters with, must meet the vector path's
// conditions — whole 8-tap blocks, an output window clear of the
// coefficients and Σ|coef| under the bound — so a coefficient or layout
// change cannot silently move them onto the scalar loop.
func TestShippedFIRCommandsTakeVectorPath(t *testing.T) {
	// The NV constant each FIR site's coefficients are fetched from.
	coefVar := map[string]string{"FIR_LEA": "coef", "Conv1_LEA": "wc1", "Conv2_LEA": "wc2"}
	firOp := apps.DefaultFIRConfig()
	firOp.ExcludeCoef = true
	double := apps.DefaultWeatherConfig()
	double.Buffers = apps.DoubleBuffer
	builds := map[string]func() (*apps.Bench, error){
		"fir":        func() (*apps.Bench, error) { return apps.NewFIRApp(apps.DefaultFIRConfig()) },
		"fir-op":     func() (*apps.Bench, error) { return apps.NewFIRApp(firOp) },
		"weather":    func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) },
		"weather-db": func() (*apps.Bench, error) { return apps.NewWeatherApp(double) },
	}
	for name, build := range builds {
		b, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vars := map[string]*task.NVVar{}
		for _, v := range b.App.Vars {
			vars[v.Name] = v
		}
		commands := 0
		for _, site := range b.App.Sites {
			rec := &firRecorder{}
			for idx := 0; idx < max(site.Instances, 1); idx++ {
				site.Exec(rec, idx)
			}
			if len(rec.cmds) == 0 {
				continue
			}
			cv, ok := vars[coefVar[site.Name]]
			if !ok {
				t.Fatalf("%s: FIR site %s has no known coefficient constant", name, site.Name)
			}
			for _, c := range rec.cmds {
				commands++
				if c[4] != len(cv.Init) {
					t.Fatalf("%s: site %s filters with %d taps, %s holds %d", name, site.Name, c[4], cv.Name, len(cv.Init))
				}
				if !lea.FirFast(c[1], c[2], c[3], cv.Init) {
					t.Errorf("%s: site %s command %v with %s leaves the vector FIR path", name, site.Name, c, cv.Name)
				}
			}
		}
		if commands == 0 {
			t.Errorf("%s: no FIR commands found", name)
		}
	}
}
