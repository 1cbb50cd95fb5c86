package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the
	// fields: utime (14) = 250 and stime (15) = 75 ticks.
	stat := "4242 (selfheal (serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 123456 987654321 9000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.25; got != want {
		t.Errorf("cpu seconds = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 no-parens S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 zz 3"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tselfheal-serve\nVmPeak:\t  500000 kB\nVmHWM:\t  369152 kB\nVmRSS:\t  300000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := 369152.0 / 1024; got != want {
		t.Errorf("VmHWM = %v MiB, want %v", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a malformed status", bad)
		}
	}
}
