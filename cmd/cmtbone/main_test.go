package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself when the test binary is started as a
// cmtbone process (runCmtbone), and the tests otherwise.
func TestMain(m *testing.M) {
	if os.Getenv("CMTBONE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmtbone runs cmtbone with args in a child process and returns its
// output.
func runCmtbone(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CMTBONE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cmtbone %v: %v\n%s", args, err, out)
	}
	return out
}

// TestCPUProfile: -cpuprofile writes a CPU profile of the run that
// parses — a gzip-compressed profile.proto message whose sample type is
// CPU nanoseconds — and the run still prints its summary.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	out := runCmtbone(t, "-np", "2", "-n", "5", "-local", "2", "-steps", "4", "-mu", "0.01", "-cpuprofile", path)
	if !bytes.Contains(out, []byte("done: steps=4")) {
		t.Fatalf("no summary:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	fields, err := protoFields(msg)
	if err != nil {
		t.Fatalf("profile does not parse: %v", err)
	}
	strs := map[string]bool{}
	for _, s := range fields[6] { // string_table
		strs[string(s)] = true
	}
	switch {
	case len(fields[1]) == 0: // sample_type
		t.Fatal("profile has no sample type")
	case len(fields[11]) == 0: // period_type
		t.Fatal("profile has no period type")
	case !strs["cpu"] || !strs["nanoseconds"]:
		t.Fatalf("profile's strings name no CPU nanoseconds: %d strings", len(strs))
	}
}

// protoFields splits a protobuf message into its top-level fields:
// length-delimited values by field number (other wire types are checked
// and skipped). It fails on a truncated or malformed message.
func protoFields(msg []byte) (map[uint64][][]byte, error) {
	out := map[uint64][][]byte{}
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, fmt.Errorf("bad key at %d bytes from the end", len(msg))
		}
		msg = msg[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(msg); n <= 0 {
				return nil, fmt.Errorf("field %d: bad varint", key>>3)
			}
		case 1: // 64-bit
			n = 8
		case 2: // length-delimited
			l, m := binary.Uvarint(msg)
			if m <= 0 || l > uint64(len(msg)-m) {
				return nil, fmt.Errorf("field %d: bad length", key>>3)
			}
			out[key>>3] = append(out[key>>3], msg[m:m+int(l)])
			n = m + int(l)
		case 5: // 32-bit
			n = 4
		default:
			return nil, fmt.Errorf("field %d: wire type %d", key>>3, key&7)
		}
		if n > len(msg) {
			return nil, fmt.Errorf("field %d: truncated", key>>3)
		}
		msg = msg[n:]
	}
	return out, nil
}
