package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"netdiversity/internal/netmodel"
)

// SessionSnapshot is the compacted state of one session: everything recovery
// needs to rebuild the tenant without replaying its whole history.  Snapshots
// are written temp-then-rename with a checksummed footer, so a snapshot file
// either validates completely or is ignored and recovery falls back to the
// previous one plus a longer log tail.
type SessionSnapshot struct {
	// ID is the session identifier; recovery cross-checks it against the
	// directory name so a misplaced file cannot impersonate another tenant.
	ID string `json:"id"`

	// Solver, Seed and MaxIterations restore the session's solver
	// configuration so post-recovery writes solve with the same knobs.
	Solver        string `json:"solver"`
	Seed          int64  `json:"seed"`
	MaxIterations int    `json:"max_iterations,omitempty"`

	// Version/Energy/Hash are the published state the snapshot captures;
	// Hash is verified against the serialized assignment on load.
	Version uint64  `json:"version"`
	Energy  float64 `json:"energy"`
	Hash    string  `json:"hash"`

	// Spec is the full network + constraints serialization.
	Spec netmodel.Spec `json:"spec"`

	// Assignment is the published assignment at Version.
	Assignment *netmodel.Assignment `json:"assignment"`

	// Similarity carries the serve plane's similarity spec opaquely, so the
	// WAL does not depend on serve-side types.
	Similarity json.RawMessage `json:"similarity,omitempty"`
}

// Snapshot files end with a fixed 16-byte footer:
//
//	[4B LE payload length][4B LE CRC32C of payload][8B magic]
//
// Putting the footer last means a torn snapshot write (crash before the
// final block reached disk) fails magic or length validation, and a torn
// payload fails the CRC — the file is complete if and only if the footer
// validates.  The rename only happens after the footer is written (and, per
// policy, fsynced), so a visible "snap-*.snap" name is already a strong
// signal; the footer makes it a checked guarantee.
const snapFooterSize = 16

var snapMagic = [8]byte{'D', 'I', 'V', 'S', 'N', 'A', 'P', '1'}

// errBadSnapshot marks a snapshot file that fails validation; recovery
// treats it as absent and falls back to an older snapshot.
var errBadSnapshot = errors.New("wal: invalid snapshot file")

func snapName(version uint64) string     { return fmt.Sprintf("snap-%016x.snap", version) }
func segName(firstVersion uint64) string { return fmt.Sprintf("wal-%016x.log", firstVersion) }

// writeSnapshotFile writes snap into dir using the temp-then-rename commit
// protocol, fsyncing file and directory when sync is true.  It returns the
// final path.  Crash points: FPMidSnapshot between the completed temp write
// and the rename, FPPostRename between the rename and the caller's cleanup.
func writeSnapshotFile(fs FS, dir string, snap *SessionSnapshot, sync bool) (string, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return "", fmt.Errorf("wal: encode snapshot: %w", err)
	}
	var footer [snapFooterSize]byte
	binary.LittleEndian.PutUint32(footer[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(footer[4:8], crc32.Checksum(payload, castagnoli))
	copy(footer[8:16], snapMagic[:])

	tmp := filepath.Join(dir, snapName(snap.Version)+".tmp")
	final := filepath.Join(dir, snapName(snap.Version))
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return "", err
	}
	if _, err := f.Write(footer[:]); err != nil {
		f.Close()
		return "", err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := failpoint(FPMidSnapshot); err != nil {
		return "", err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return "", err
	}
	if err := failpoint(FPPostRename); err != nil {
		return final, err
	}
	if sync {
		if err := fs.SyncDir(dir); err != nil {
			return final, err
		}
	}
	return final, nil
}

// readSnapshotFile loads and validates a snapshot file: footer magic,
// length, payload CRC, and the journaled hash against the deserialized
// assignment.
func readSnapshotFile(fs FS, path string) (*SessionSnapshot, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(raw) < snapFooterSize {
		return nil, fmt.Errorf("%w: %s: too short", errBadSnapshot, filepath.Base(path))
	}
	footer := raw[len(raw)-snapFooterSize:]
	if [8]byte(footer[8:16]) != snapMagic {
		return nil, fmt.Errorf("%w: %s: bad magic", errBadSnapshot, filepath.Base(path))
	}
	length := binary.LittleEndian.Uint32(footer[0:4])
	if int(length) != len(raw)-snapFooterSize {
		return nil, fmt.Errorf("%w: %s: length mismatch", errBadSnapshot, filepath.Base(path))
	}
	payload := raw[:length]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(footer[4:8]) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", errBadSnapshot, filepath.Base(path))
	}
	var snap SessionSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errBadSnapshot, filepath.Base(path), err)
	}
	if snap.Assignment == nil {
		snap.Assignment = netmodel.NewAssignment()
	}
	// Sealed before anything can publish it: recovery derives from it and the
	// serving plane shares it with readers as is.
	if got := snap.Assignment.Seal().Hash(); got != snap.Hash {
		return nil, fmt.Errorf("%w: %s: assignment hash %s != journaled %s",
			errBadSnapshot, filepath.Base(path), got, snap.Hash)
	}
	return &snap, nil
}
