package profdb

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Write-ahead log format (ILWAL 1). The WAL is the ack barrier of the
// ingestion daemon: a snapshot is acknowledged only after its WAL
// frame is durable, so kill -9 at any instant loses no acked record.
//
//	ILWAL 1 <epoch>
//	rec <payload-bytes> <crc32-hex>
//	<payload — one ILPROFSNAP serialization>
//	rec ...
//
// Each frame carries the payload length and an IEEE CRC32 of the
// payload, so replay detects exactly where a torn append stops: the
// synced prefix parses frame by frame, and the first length, checksum,
// or framing violation discards the rest of the file. The epoch in the
// header ties the log to the snapshot lifecycle — a snapshot at epoch E
// embeds every frame logged at epochs < E, so recovery replays a WAL
// exactly when its epoch is >= the loaded snapshot's (see Store).

const walMagic = "ILWAL 1"

// walHeader renders the log's first line.
func walHeader(epoch int) []byte {
	return []byte(fmt.Sprintf("%s %d\n", walMagic, epoch))
}

// appendWALFrame appends one checksummed frame to buf.
func appendWALFrame(buf *bytes.Buffer, payload []byte) {
	fmt.Fprintf(buf, "rec %d %08x\n", len(payload), crc32.ChecksumIEEE(payload))
	buf.Write(payload)
	buf.WriteByte('\n')
}

// parseWAL decodes a log image. It returns the header epoch, the intact
// payloads in append order, and how many trailing bytes were discarded
// at the first framing/checksum violation (torn append). ok is false
// when the header itself is unusable — the whole file is then garbage.
func parseWAL(data []byte) (epoch int, payloads [][]byte, discarded int64, ok bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return 0, nil, int64(len(data)), false
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0]+" "+fields[1] != walMagic {
		return 0, nil, int64(len(data)), false
	}
	e, err := strconv.Atoi(fields[2])
	if err != nil || e < 0 {
		return 0, nil, int64(len(data)), false
	}
	epoch = e
	off := nl + 1
	for off < len(data) {
		frameStart := off
		bad := func() (int, [][]byte, int64, bool) {
			return epoch, payloads, int64(len(data) - frameStart), true
		}
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return bad()
		}
		fields := strings.Fields(string(data[off : off+nl]))
		if len(fields) != 3 || fields[0] != "rec" {
			return bad()
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return bad()
		}
		sum, err := strconv.ParseUint(fields[2], 16, 32)
		if err != nil {
			return bad()
		}
		off += nl + 1
		if off+n+1 > len(data) {
			return bad()
		}
		payload := data[off : off+n]
		if data[off+n] != '\n' || crc32.ChecksumIEEE(payload) != uint32(sum) {
			return bad()
		}
		payloads = append(payloads, payload)
		off += n + 1
	}
	return epoch, payloads, 0, true
}
