package sim

import (
	"fmt"
	"reflect"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
)

// TestGoldenParity pins the simulator's results to values captured before
// the controllers were ported onto the shared engine layer: every kernel ×
// scheme × controller-variant must reproduce its pre-refactor Cycles,
// UsefulWords, and PercentPeak bit for bit (PercentPeak compared through
// the same %.10f formatting the capture used). Any change here means the
// refactor altered simulated behaviour, not just code structure.
func TestGoldenParity(t *testing.T) {
	for _, g := range goldenRows {
		t.Run(fmt.Sprintf("%s/%s/%s", g.kernel, g.scheme, g.variant), func(t *testing.T) {
			out, err := Run(goldenScenario(t, g.kernel, g.scheme, g.variant))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Verified {
				t.Error("result not verified")
			}
			if out.Cycles != g.cycles {
				t.Errorf("Cycles = %d, golden %d", out.Cycles, g.cycles)
			}
			if out.UsefulWords != g.useful {
				t.Errorf("UsefulWords = %d, golden %d", out.UsefulWords, g.useful)
			}
			if got := fmt.Sprintf("%.10f", out.PercentPeak); got != g.percentPeak {
				t.Errorf("PercentPeak = %s, golden %s", got, g.percentPeak)
			}
		})
	}
}

// goldenRows are TestGoldenParity's pinned kernel × scheme × variant
// results.
var goldenRows = []struct {
	kernel, scheme, variant string
	cycles, useful          int64
	percentPeak             string
}{
	{"copy", "CLI", "natural", 3598, 1024, "56.9205113952"},
	{"copy", "CLI", "natural+wa", 5410, 1024, "37.8558225508"},
	{"copy", "CLI", "natural+cache", 4628, 1024, "44.2523768366"},
	{"copy", "CLI", "smc", 2402, 1024, "85.2622814321"},
	{"copy", "CLI", "smc+spec", 2402, 1024, "85.2622814321"},
	{"copy", "CLI", "smc+bankaware", 2838, 1024, "72.1634954193"},
	{"copy", "CLI", "smc+hitfirst", 2430, 1024, "84.2798353909"},
	{"copy", "PI", "natural", 2863, 1024, "71.5333566189"},
	{"copy", "PI", "natural+wa", 3884, 1024, "52.7291452111"},
	{"copy", "PI", "natural+cache", 3285, 1024, "62.3439878234"},
	{"copy", "PI", "smc", 2134, 1024, "95.9700093721"},
	{"copy", "PI", "smc+spec", 2134, 1024, "95.9700093721"},
	{"copy", "PI", "smc+bankaware", 2194, 1024, "93.3454876937"},
	{"copy", "PI", "smc+hitfirst", 2158, 1024, "94.9026876738"},
	{"daxpy", "CLI", "natural", 6414, 1536, "47.8952291862"},
	{"daxpy", "CLI", "natural+wa", 6448, 1536, "47.6426799007"},
	{"daxpy", "CLI", "natural+cache", 5124, 1536, "59.9531615925"},
	{"daxpy", "CLI", "smc", 3698, 1536, "83.0719307734"},
	{"daxpy", "CLI", "smc+spec", 3698, 1536, "83.0719307734"},
	{"daxpy", "CLI", "smc+bankaware", 3686, 1536, "83.3423765600"},
	{"daxpy", "CLI", "smc+hitfirst", 3602, 1536, "85.2859522488"},
	{"daxpy", "PI", "natural", 3863, 1536, "79.5236862542"},
	{"daxpy", "PI", "natural+wa", 4888, 1536, "62.8477905074"},
	{"daxpy", "PI", "natural+cache", 3760, 1536, "81.7021276596"},
	{"daxpy", "PI", "smc", 3205, 1536, "95.8502340094"},
	{"daxpy", "PI", "smc+spec", 3205, 1536, "95.8502340094"},
	{"daxpy", "PI", "smc+bankaware", 3309, 1536, "92.8377153218"},
	{"daxpy", "PI", "smc+hitfirst", 3309, 1536, "92.8377153218"},
	{"hydro", "CLI", "natural", 13878, 2048, "29.5143392420"},
	{"hydro", "CLI", "natural+wa", 14160, 2048, "28.9265536723"},
	{"hydro", "CLI", "natural+cache", 11024, 2048, "37.1552975327"},
	{"hydro", "CLI", "smc", 4785, 2048, "85.6008359457"},
	{"hydro", "CLI", "smc+spec", 4785, 2048, "85.6008359457"},
	{"hydro", "CLI", "smc+bankaware", 4811, 2048, "85.1382249013"},
	{"hydro", "CLI", "smc+hitfirst", 4801, 2048, "85.3155592585"},
	{"hydro", "PI", "natural", 5278, 2048, "77.6051534672"},
	{"hydro", "PI", "natural+wa", 6293, 2048, "65.0881932306"},
	{"hydro", "PI", "natural+cache", 5050, 2048, "81.1089108911"},
	{"hydro", "PI", "smc", 4287, 2048, "95.5446699324"},
	{"hydro", "PI", "smc+spec", 4287, 2048, "95.5446699324"},
	{"hydro", "PI", "smc+bankaware", 4439, 2048, "92.2730344672"},
	{"hydro", "PI", "smc+hitfirst", 4433, 2048, "92.3979246560"},
	{"vaxpy", "CLI", "natural", 7438, 2048, "55.0685668190"},
	{"vaxpy", "CLI", "natural+wa", 7472, 2048, "54.8179871520"},
	{"vaxpy", "CLI", "natural+cache", 9350, 2048, "43.8074866310"},
	{"vaxpy", "CLI", "smc", 4545, 2048, "90.1210121012"},
	{"vaxpy", "CLI", "smc+spec", 4545, 2048, "90.1210121012"},
	{"vaxpy", "CLI", "smc+bankaware", 4563, 2048, "89.7655051501"},
	{"vaxpy", "CLI", "smc+hitfirst", 4571, 2048, "89.6084007876"},
	{"vaxpy", "PI", "natural", 4919, 2048, "83.2689571051"},
	{"vaxpy", "PI", "natural+wa", 5944, 2048, "68.9098250336"},
	{"vaxpy", "PI", "natural+cache", 4829, 2048, "84.8208738869"},
	{"vaxpy", "PI", "smc", 4301, 2048, "95.2336665892"},
	{"vaxpy", "PI", "smc+spec", 4301, 2048, "95.2336665892"},
	{"vaxpy", "PI", "smc+bankaware", 4473, 2048, "91.5716521350"},
	{"vaxpy", "PI", "smc+hitfirst", 4449, 2048, "92.0656327265"},
}

// goldenScenario builds the golden scenario shape (N=512, staggered
// placement, FIFO depth 32, seed 7) for one kernel × scheme × variant;
// the variant "conventional" names the registered controller.
func goldenScenario(t *testing.T, kernel, scheme, variant string) Scenario {
	t.Helper()
	sc := Scenario{
		KernelName: kernel, N: 512,
		Placement: stream.Staggered,
		FIFODepth: 32, Seed: 7,
	}
	if scheme == "PI" {
		sc.Scheme = addrmap.PI
	}
	switch variant {
	case "natural":
		sc.Mode = NaturalOrder
	case "natural+wa":
		sc.Mode = NaturalOrder
		sc.WriteAllocate = true
	case "natural+cache":
		sc.Mode = NaturalOrder
		sc.Cache = &cache.Config{SizeWords: 2048, LineWords: 4, Ways: 2}
	case "smc":
		sc.Mode = SMC
	case "smc+spec":
		sc.Mode = SMC
		sc.SpeculateActivate = true
	case "smc+bankaware":
		sc.Mode = SMC
		sc.Policy = smc.BankAware
	case "smc+hitfirst":
		sc.Mode = SMC
		sc.Policy = smc.HitFirst
	case "conventional":
		sc.Controller = "conventional"
	default:
		t.Fatalf("unknown variant %q", variant)
	}
	return sc
}

// TestConventionalGoldenParity pins the registered "conventional"
// controller on the golden scenario shape: its Cycles and full device
// counters per kernel × scheme, plus functional verification (the write
// transactions must carry the kernel's store values).
func TestConventionalGoldenParity(t *testing.T) {
	for _, g := range conventionalGoldenRows {
		t.Run(g.kernel+"/"+g.scheme, func(t *testing.T) {
			out, err := Run(goldenScenario(t, g.kernel, g.scheme, "conventional"))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Verified {
				t.Error("result not verified")
			}
			if out.Cycles != g.cycles {
				t.Errorf("Cycles = %d, golden %d", out.Cycles, g.cycles)
			}
			if got := out.Device.String(); got != g.device {
				t.Errorf("Device = %s\n golden   %s", got, g.device)
			}
		})
	}
}

// conventionalGoldenRows are TestConventionalGoldenParity's pinned
// kernel × scheme results.
var conventionalGoldenRows = []struct {
	kernel, scheme string
	cycles         int64
	device         string
}{
	{"copy", "CLI", 2830, "act=256 pre=256 rd=256 wr=256 hit=256 miss=256 conflict=0 ret=127 refresh=0 busBusy=2048 lastData=2830"},
	{"copy", "PI", 2830, "act=8 pre=0 rd=256 wr=256 hit=504 miss=8 conflict=0 ret=127 refresh=0 busBusy=2048 lastData=2830"},
	{"daxpy", "CLI", 6414, "act=384 pre=384 rd=512 wr=256 hit=384 miss=384 conflict=0 ret=127 refresh=0 busBusy=3072 lastData=6414"},
	{"daxpy", "PI", 3854, "act=8 pre=0 rd=512 wr=256 hit=760 miss=8 conflict=0 ret=127 refresh=0 busBusy=3072 lastData=3854"},
	{"hydro", "CLI", 10814, "act=514 pre=514 rd=772 wr=256 hit=514 miss=514 conflict=0 ret=128 refresh=0 busBusy=4112 lastData=10814"},
	{"hydro", "PI", 4900, "act=13 pre=5 rd=772 wr=256 hit=1015 miss=13 conflict=5 ret=128 refresh=0 busBusy=4112 lastData=4900"},
	{"vaxpy", "CLI", 7438, "act=512 pre=512 rd=768 wr=256 hit=512 miss=512 conflict=0 ret=127 refresh=0 busBusy=4096 lastData=7438"},
	{"vaxpy", "PI", 4890, "act=12 pre=4 rd=768 wr=256 hit=1012 miss=12 conflict=4 ret=127 refresh=0 busBusy=4096 lastData=4890"},
}

// TestTimingOnlyParity runs every golden row — the 56 kernel × scheme ×
// variant rows and the conventional controller's 8 — a second time with
// SkipVerify, which makes the device timing-only and lets the controllers
// skip their functional phase. Data never influences timing, so the whole
// controller result (cycles, traffic, bandwidth, CPU stalls, device
// counters) must equal the verified run's; only Verified differs.
func TestTimingOnlyParity(t *testing.T) {
	type row struct{ kernel, scheme, variant string }
	var rows []row
	for _, g := range goldenRows {
		rows = append(rows, row{g.kernel, g.scheme, g.variant})
	}
	for _, g := range conventionalGoldenRows {
		rows = append(rows, row{g.kernel, g.scheme, "conventional"})
	}
	for _, r := range rows {
		t.Run(r.kernel+"/"+r.scheme+"/"+r.variant, func(t *testing.T) {
			sc := goldenScenario(t, r.kernel, r.scheme, r.variant)
			verified, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			sc.SkipVerify = true
			timing, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !verified.Verified || timing.Verified {
				t.Errorf("Verified = %v verified run, %v timing-only run; want true, false", verified.Verified, timing.Verified)
			}
			if !reflect.DeepEqual(timing.Result, verified.Result) {
				t.Errorf("timing-only result differs from verified run:\n timing   %+v\n verified %+v", timing.Result, verified.Result)
			}
		})
	}
}
