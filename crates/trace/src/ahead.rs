//! Decode-ahead for `BPTR` v4: blocks framed on the reading thread are
//! checksum-verified and decoded on one helper thread while the consumer
//! works on the chunk before them.
//!
//! Blocks are framed independently, so block k+1 can be verified and
//! decoded while the consumer trains on, prepares or copies block k. The
//! reading thread keeps everything that touches untrusted lengths or the
//! byte stream: it reads each frame, checks its caps, sizes the block's
//! payload and record buffers and reads its payload and trailer
//! (`crate::reader`). What it hands over is a [`Block`] whose payload and
//! records are already sized. The decoding thread, the helper included,
//! fills them and grows only the block's template scratch: one entry per
//! dictionary entry, so at most the frame's record cap, and only after
//! the checksum passed. The scratch is recycled with the block.
//!
//! The threading contract:
//!
//! * **One helper per reader**, spawned when the second block is framed
//!   and only when [`std::thread::available_parallelism`] exceeds 1. On a
//!   single-CPU host no helper exists and each call frames, verifies and
//!   decodes exactly one block on the calling thread.
//! * **The window.** At most [`WINDOW`] framed blocks are in flight beyond
//!   the chunk the consumer holds, so at most `WINDOW + 1` blocks'
//!   buffers exist. Buffers are recycled from block to block.
//! * **The caller helps.** When the block the consumer needs is not
//!   decoded yet, the consumer verifies and decodes the oldest framed
//!   block nobody has claimed instead of sleeping; it waits only while
//!   the helper holds every outstanding block. A decode-bound drain
//!   therefore runs on both threads and is never slower than decoding
//!   inline.
//! * **Stream order.** Blocks are delivered in framing order. A block
//!   that fails verification or decode is reported after exactly the
//!   blocks before it; how framing stopped (the verified end marker, or
//!   a framing or I/O error) is reported only once every framed block
//!   has been delivered.
//! * **Shutdown.** Dropping an [`Ahead`] closes the queue, joins the
//!   helper (which finishes at most the one block it is decoding) and
//!   frees every buffer. A panic inside the helper's decode is caught
//!   there and re-raised on the consumer's thread, which therefore never
//!   waits for a block that will not arrive.

use std::any::Any;
use std::collections::VecDeque;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

use crate::codec_v3::{check_digest, decode_block};
use crate::record::RetiredInst;
use crate::serialize::ReadTraceError;

/// Framed blocks kept in flight beyond the chunk the consumer holds,
/// when a helper thread decodes ahead.
const WINDOW: u64 = 2;

/// One framed block with its buffers: filled by the reading thread,
/// verified and decoded by whichever thread claims it.
#[derive(Default)]
pub(crate) struct Block {
    /// The `n_records · payload_len` frame, covered by the checksum.
    pub(crate) frame: [u8; 8],
    /// Records the frame declares (already checked against the caps).
    pub(crate) n_records: usize,
    /// The checksum trailer read after the payload.
    pub(crate) trailer: u64,
    /// The encoded payload.
    pub(crate) payload: Vec<u8>,
    /// Decoded records; the reading thread reserves their capacity.
    pub(crate) records: Vec<RetiredInst>,
    /// Decode scratch: one record template per dictionary entry, grown
    /// on the decoding thread (at most `n_records` entries).
    templates: Vec<RetiredInst>,
}

impl Block {
    /// Checks the trailer against `frame ++ payload`, then decodes the
    /// payload into `records`.
    fn decode(&mut self) -> Result<(), ReadTraceError> {
        check_digest(self.trailer, &self.frame, &self.payload)?;
        self.records.clear();
        decode_block(&self.payload, self.n_records, &mut self.templates, &mut self.records)
    }
}

/// Blocks between framing and delivery, shared with the helper.
#[derive(Default)]
struct Queue {
    /// Framed blocks no thread has claimed yet, oldest first, each with
    /// its position in the stream.
    framed: VecDeque<(u64, Block)>,
    /// Blocks whose verify-and-decode has finished, in any order.
    decoded: Vec<(u64, Block, Result<(), ReadTraceError>)>,
    /// Set on shutdown: the helper exits instead of claiming more.
    closed: bool,
    /// A panic the helper caught while decoding, for the consumer to
    /// re-raise.
    panic: Option<Box<dyn Any + Send>>,
    /// Test hook: the helper panics inside its next decode.
    #[cfg(test)]
    panic_in_helper: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes the helper: a block was framed, or the queue closed.
    work: Condvar,
    /// Wakes the consumer: a block was decoded, or the helper panicked.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Every update under the lock is a single push, pop or field
        // store, so the queue is consistent even after a holder panicked.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The helper's loop: claim the oldest framed block, verify and decode
/// it with the lock released, file the result, until the queue closes.
fn run_helper(shared: &Shared) {
    let mut q = shared.lock();
    loop {
        if q.closed {
            return;
        }
        let Some((seq, mut block)) = q.framed.pop_front() else {
            q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        #[cfg(test)]
        let inject = q.panic_in_helper;
        drop(q);
        // The block is dropped if its decode panics, so no broken state
        // outlives the unwind.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            assert!(!inject, "injected decode-helper panic");
            block.decode()
        }));
        q = shared.lock();
        let keep_going = match outcome {
            Ok(result) => {
                q.decoded.push((seq, block, result));
                true
            }
            Err(payload) => {
                q.panic = Some(payload);
                false
            }
        };
        shared.done.notify_one();
        if !keep_going {
            return;
        }
    }
}

/// Whether this process may decode ahead: more than one CPU is available
/// to it. Decided once per process.
fn parallel_host() -> bool {
    static PARALLEL: OnceLock<bool> = OnceLock::new();
    *PARALLEL.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// The decode pipeline of one reader: the window of framed blocks,
/// the optional helper, and the block the consumer holds.
pub(crate) struct Ahead {
    shared: Arc<Shared>,
    /// Whether a helper may be spawned (and so whether to frame ahead).
    may_spawn: bool,
    helper: Option<JoinHandle<()>>,
    /// Set once the helper panicked: the block it held is lost.
    lost: bool,
    /// Buffers of blocks the consumer has moved past.
    spare: Vec<Block>,
    /// The block whose records the consumer holds.
    held: Option<Block>,
    /// Stream position of the next block to deliver.
    next: u64,
    /// Stream position of the next block to frame.
    framed: u64,
    /// How framing stopped: `Ok` at the verified end marker, or the
    /// framing/I/O error, held back until every framed block is out.
    tail: Option<Result<(), ReadTraceError>>,
}

impl Ahead {
    /// A pipeline that decodes ahead on a helper thread when the host has
    /// more than one CPU.
    pub(crate) fn new() -> Self {
        Ahead::with_helper(parallel_host())
    }

    /// A pipeline that decodes ahead on a helper thread if `may_spawn`,
    /// else one block at a time on the calling thread.
    pub(crate) fn with_helper(may_spawn: bool) -> Self {
        Ahead {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue::default()),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            may_spawn,
            helper: None,
            lost: false,
            spare: Vec::new(),
            held: None,
            next: 0,
            framed: 0,
            tail: None,
        }
    }

    /// Recycles the held block, then frames blocks with `frame` until
    /// the window is full or framing has stopped.
    fn fill(&mut self, mut frame: impl FnMut(&mut Block) -> Result<bool, ReadTraceError>) {
        self.spare.extend(self.held.take());
        let window = if self.may_spawn { WINDOW } else { 0 };
        while self.tail.is_none() && self.framed - self.next <= window {
            let mut block = self.spare.pop().unwrap_or_default();
            match frame(&mut block) {
                Ok(true) => self.submit(block),
                Ok(false) => self.tail = Some(Ok(())),
                Err(e) => self.tail = Some(Err(e)),
            }
        }
    }

    /// Queues a framed block for decoding, spawning the helper once a
    /// second block is in flight.
    fn submit(&mut self, block: Block) {
        self.shared.lock().framed.push_back((self.framed, block));
        self.framed += 1;
        if self.may_spawn && self.helper.is_none() && self.framed - self.next > 1 {
            let shared = Arc::clone(&self.shared);
            match thread::Builder::new()
                .name("bptr-decode".to_owned())
                .spawn(move || run_helper(&shared))
            {
                Ok(handle) => self.helper = Some(handle),
                // No thread to be had: decode inline from now on.
                Err(_) => self.may_spawn = false,
            }
        }
        self.shared.work.notify_one();
    }

    /// Moves the consumer past the block it holds: tops up the window
    /// with blocks framed by `frame` (which fills a block and returns
    /// `Ok(false)` at the verified end marker), then delivers the next
    /// block in stream order and returns `Ok(true)` with it held (see
    /// [`Ahead::held`]). Once every framed block is out, reports how
    /// framing stopped: `Ok(false)` at the verified end.
    ///
    /// # Errors
    ///
    /// The next block's checksum or decode error, the held-back framing
    /// error, or an I/O error once the helper has panicked.
    pub(crate) fn next_block(
        &mut self,
        frame: impl FnMut(&mut Block) -> Result<bool, ReadTraceError>,
    ) -> Result<bool, ReadTraceError> {
        if self.lost {
            return Err(ReadTraceError::Io(io::Error::other("trace decode helper panicked")));
        }
        self.fill(frame);
        if self.framed == self.next {
            let tail = self.tail.take().expect("fill frames a block or records why it could not");
            return tail.map(|()| false);
        }
        let want = self.next;
        let mut q = self.shared.lock();
        let (block, result) = loop {
            if let Some(i) = q.decoded.iter().position(|d| d.0 == want) {
                let (_, block, result) = q.decoded.swap_remove(i);
                break (block, result);
            }
            if let Some(payload) = q.panic.take() {
                drop(q);
                self.lost = true;
                panic::resume_unwind(payload);
            }
            if let Some((seq, mut block)) = q.framed.pop_front() {
                // Not ready: decode the oldest unclaimed block here
                // rather than sleep.
                drop(q);
                let result = block.decode();
                q = self.shared.lock();
                q.decoded.push((seq, block, result));
            } else {
                // The helper holds every outstanding block.
                q = self.shared.done.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        drop(q);
        self.next += 1;
        result?;
        self.held = Some(block);
        Ok(true)
    }

    /// Records of the block delivered last.
    pub(crate) fn held(&self) -> &[RetiredInst] {
        self.held.as_ref().map_or(&[], |b| &b.records)
    }
}

impl Drop for Ahead {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            self.shared.lock().closed = true;
            self.shared.work.notify_all();
            // The helper catches decode panics and hands them over, and
            // nothing else it runs can panic: the join result is Ok.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
impl Ahead {
    /// Makes the helper panic inside its next decode.
    pub(crate) fn inject_helper_panic(&self) {
        self.shared.lock().panic_in_helper = true;
    }

    /// Blocks until the helper has caught a panic.
    pub(crate) fn wait_for_helper_panic(&self) {
        let q = self.shared.lock();
        drop(self.shared.done.wait_while(q, |q| q.panic.is_none()));
    }

    /// Blocks whose buffers exist: spare, held and in flight.
    pub(crate) fn blocks(&self) -> u64 {
        self.spare.len() as u64 + u64::from(self.held.is_some()) + (self.framed - self.next)
    }

    /// Whether a helper thread has been spawned.
    pub(crate) fn has_helper(&self) -> bool {
        self.helper.is_some()
    }

    /// The shared state, to observe its release.
    pub(crate) fn shared_state(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}
