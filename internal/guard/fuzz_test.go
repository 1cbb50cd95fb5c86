package guard

import "testing"

// FuzzGuardSpecRoundTrip checks that String is a total inverse of Parse
// on the accepted spec language, like the faults specs' round trips:
// any spec Parse accepts must re-emit to a spec that parses back to the
// identical config, so a logged guard spec reconfigures the same guard.
func FuzzGuardSpecRoundTrip(f *testing.F) {
	f.Add("")
	f.Add("sigma=4,rate_floor=5e-4,streak=2,rejuv_epochs=4,recover_frac=0.9")
	f.Add("warmup=0,rejuv_temp_c=125,rejuv_vdd=-0.4,max_quarantine_frac=1,remap_cells=1")
	f.Add("nominal_temp_c=-40,nominal_vdd=0.9,sigma=0")
	// Refused: non-finite values (NaN slips every range check).
	f.Add("sigma=NaN")
	f.Add("rate_floor=+Inf")
	f.Add("rejuv_temp_c=-inf")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := Parse(spec)
		if err != nil {
			return
		}
		emitted := cfg.String()
		cfg2, err := Parse(emitted)
		if err != nil {
			t.Fatalf("String of parsed %q emitted unparseable %q: %v", spec, emitted, err)
		}
		if cfg != cfg2 {
			t.Fatalf("round trip mutated config: %q -> %+v -> %q -> %+v", spec, cfg, emitted, cfg2)
		}
	})
}
