package blobindex

import (
	"errors"

	"blobindex/internal/pagefile"
)

// Sentinel errors returned by the facade. They are wrapped with situational
// detail, so match them with errors.Is rather than equality.
var (
	// ErrDimMismatch reports a key or query whose dimensionality differs
	// from the index's Options.Dim. Returned by Build, Insert, Delete and
	// the context-aware search APIs.
	ErrDimMismatch = errors.New("blobindex: key dimension mismatch")

	// ErrEmptyIndex reports a context-aware or batch search against an
	// index holding no points. The legacy search methods keep returning an
	// empty result set instead.
	ErrEmptyIndex = errors.New("blobindex: index holds no points")

	// ErrClosed reports a search, write or maintenance call on an index
	// after Close — including a search that Close overtook mid-traversal.
	// Serving layers answer it as unavailable (503), never as not found.
	ErrClosed = errors.New("blobindex: index closed")

	// ErrInvalidOptions reports malformed Options. Returned by New, Build
	// and Options.Validate.
	ErrInvalidOptions = errors.New("blobindex: invalid options")

	// ErrInvalidSearchRequest reports a malformed SearchRequest — K and
	// Radius both set (or neither), refine parameters on a non-refining
	// request, and similar shape violations. Returned by
	// SearchRequest.Validate and the Search entry points.
	ErrInvalidSearchRequest = errors.New("blobindex: invalid search request")

	// ErrInvalidRecallTarget reports a SearchRequest.TargetRecall outside
	// (0, 1]. It is a refinement of ErrInvalidSearchRequest for the one
	// field that is a calibrated knob rather than a structural choice.
	ErrInvalidRecallTarget = errors.New("blobindex: recall target outside (0, 1]")

	// ErrNoRefineStore reports a Refine request against an index with no
	// full-feature side store attached (AttachRefine).
	ErrNoRefineStore = errors.New("blobindex: no refine store attached")

	// ErrMultiSegment reports a single-tree operation (Analyze, WriteSVG)
	// against an index currently holding more than one live segment or
	// live tombstones — an opened file after its first write, or an online
	// index past its first seal. Save such an index and Open the file, or
	// run CompactAll on an online index, to get back to one segment.
	ErrMultiSegment = errors.New("blobindex: index holds multiple segments")

	// ErrNotOnline reports a maintenance operation (SealActive,
	// CompactPending, CompactAll) against an index with no write-ahead
	// log: one from New, Build or Open rather than CreateOnline or
	// OpenOnline.
	ErrNotOnline = errors.New("blobindex: index is not online")
)

// Storage failure classes surfaced by demand-paged indexes (Open). Searches
// and writes over a paged index can fail mid-traversal when a page read
// fails; serving layers branch on the class — a transient failure is worth
// the client retrying (503 + Retry-After), while corruption is not (500).
var (
	// ErrStorageTransient marks a search or write that failed on a
	// transient page read even after the store's bounded in-process
	// retries. The same request may well succeed if reissued.
	ErrStorageTransient = pagefile.ErrTransient

	// ErrStorageCorrupt marks a search or write that read a page whose
	// checksum did not match its contents — the on-disk index is damaged
	// and retrying cannot help.
	ErrStorageCorrupt = pagefile.ErrChecksum
)
