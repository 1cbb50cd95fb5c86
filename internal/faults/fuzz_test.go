package faults

import "testing"

// FuzzConfigRoundTrip checks that String is a total inverse of
// ParseConfig on the accepted spec language: any spec ParseConfig
// accepts must re-emit to a spec that parses back to the identical
// config — otherwise a logged -faults line could replay a different
// chaos run than the one it claims to describe.
func FuzzConfigRoundTrip(f *testing.F) {
	f.Add("")
	f.Add("seed=7")
	f.Add("seed=7,latency_p=0.2,latency=50ms,error_p=0.05,panic_p=0.01,partial_p=0.1")
	f.Add("disk=fail-fsync:3")
	f.Add("disk=corrupt-on-write")
	f.Add("latency_p=1e-3,latency=1h30m")
	f.Add("seed=18446744073709551615,disk=fail-append:2147483647")
	// Refused: a budget with no mode (String would drop it) and
	// non-finite probabilities (NaN slips a range check).
	f.Add("disk=:1")
	f.Add("net=:3")
	f.Add("error_p=NaN")
	f.Add("latency_p=+Inf")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseConfig(spec)
		if err != nil {
			return
		}
		emitted := cfg.String()
		cfg2, err := ParseConfig(emitted)
		if err != nil {
			t.Fatalf("String of parsed %q emitted unparseable %q: %v", spec, emitted, err)
		}
		if cfg != cfg2 {
			t.Fatalf("round trip mutated config: %q -> %+v -> %q -> %+v", spec, cfg, emitted, cfg2)
		}
	})
}

// FuzzAdversaryRoundTrip is the same property for the -adversary spec.
func FuzzAdversaryRoundTrip(f *testing.F) {
	f.Add("")
	f.Add("seed=7,victims=4")
	f.Add("seed=7,victims=4,temp_c=110,vdd=1.32,start=20,cancel_p=0.5,deny_p=0.5")
	f.Add("victims=1,duty=0.5,deny_p=1")
	f.Add("temp_c=-40,vdd=-0.3")
	// Refused: non-finite values.
	f.Add("vdd=NAN")
	f.Add("temp_c=+Inf")
	f.Add("victims=1,duty=nan")
	f.Add("cancel_p=NaN")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseAdversary(spec)
		if err != nil {
			return
		}
		emitted := cfg.String()
		cfg2, err := ParseAdversary(emitted)
		if err != nil {
			t.Fatalf("String of parsed %q emitted unparseable %q: %v", spec, emitted, err)
		}
		if cfg != cfg2 {
			t.Fatalf("round trip mutated config: %q -> %+v -> %q -> %+v", spec, cfg, emitted, cfg2)
		}
	})
}
