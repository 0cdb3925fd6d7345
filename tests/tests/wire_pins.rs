//! The bytes of every data-plane message and every open parameter, recorded
//! before each became one declaration against the wire codec (DESIGN.md
//! §14.1, "Writing a message"). Byte fields of 0, 127 and 128 bytes cross
//! the one- to two-byte LEB128 length prefix; each message's decoder is
//! held to its verdict on an unknown tag, a trailing byte and a truncation.
//!
//! A message is rendered as hex, a run of four or more equal bytes as
//! `xx*N`.
//!
//! The KVS delete's rows went when schema 3 deleted the operation; its tag
//! is refused now. The directory's `Unchanged` answer's rows came with it.

use std::fmt::Debug;

use lastcpu_baseline::{BrokerParams, Packet};
use lastcpu_bench::alloc::{watch, CountingAlloc};
use lastcpu_bus::wire::Wire;
use lastcpu_bus::{DeviceId, ServiceId, Token};
use lastcpu_core::devices::accel::FabricParams;
use lastcpu_core::devices::auth::{Login, LoginReply};
use lastcpu_core::devices::ssd::{
    FileOpRef, FileOpen, FileOpened, FileReply, FileStatus, FsCreated, FsOp, LoaderParams,
};
use lastcpu_fabric::{DirEndpoint, DirMsg};
use lastcpu_kvs::proto::{
    encode_get_into, encode_put_into, encode_response_into, KvsRequestRef, KvsResponseRef,
    KvsStatus,
};
use lastcpu_net::PortId;

// The encoders and decoders these pins were recorded through, each now one
// declaration's derived codec.

fn encode_response(id: u64, status: KvsStatus, value: &[u8]) -> Vec<u8> {
    KvsResponseRef { id, status, value }.encode()
}

fn encode_file_response(status: FileStatus, data: &[u8]) -> Vec<u8> {
    FileReply { status, data }.encode()
}

fn decode_response(buf: &[u8]) -> Option<(FileStatus, &[u8])> {
    FileReply::decode(buf).ok().map(|r| (r.status, r.data))
}

fn encode_loader_params(image: &str, contents: &[u8]) -> Vec<u8> {
    LoaderParams { image, contents }.encode()
}

fn encode_broker_params(
    target: DeviceId,
    service: ServiceId,
    token: Token,
    inner: &[u8],
) -> Vec<u8> {
    BrokerParams {
        target,
        service,
        token,
        inner,
    }
    .encode()
}

fn encode_packet(port: PortId, payload: &[u8]) -> Vec<u8> {
    Packet {
        port: port.0,
        payload,
    }
    .encode()
}

fn decode_packet(buf: &[u8]) -> Option<(PortId, Vec<u8>)> {
    Packet::decode(buf)
        .ok()
        .map(|p| (PortId(p.port), p.payload.to_vec()))
}

fn encode_login(user: &str, password: &str) -> Vec<u8> {
    Login { user, password }.encode()
}

fn decode_login_response(buf: &[u8]) -> Option<Token> {
    LoginReply::decode(buf).ok().map(|r| r.token)
}

fn encode_fabric_params(regions: u16) -> Vec<u8> {
    FabricParams { regions }.encode()
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Hex, with a run of four or more equal bytes as `xx*N`.
fn show(bytes: &[u8]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        let run = bytes[i..].iter().take_while(|&&b| b == bytes[i]).count();
        if run >= 4 {
            out += &format!(" {:02x}*{run} ", bytes[i]);
            i += run;
        } else {
            out += &format!("{:02x}", bytes[i]);
            i += 1;
        }
    }
    out.trim().replace("  ", " ")
}

/// A decoder's verdict: what it read, or `refused`.
fn verdict<T: Debug>(v: Option<T>) -> String {
    v.map_or_else(|| "refused".into(), |v| format!("{v:?}"))
}

/// Byte fields of each size: around the LEB128 boundary.
const SIZES: [usize; 3] = [0, 127, 128];

fn fill(b: u8, n: usize) -> Vec<u8> {
    vec![b; n]
}

fn text(c: char, n: usize) -> String {
    c.to_string().repeat(n)
}

/// Every message this file pins, by name, as its encoder writes it.
fn messages() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut add = |name: String, bytes: Vec<u8>| out.push((name, bytes));
    for n in SIZES {
        let (key, value) = (fill(0x6b, n), fill(0x76, n));
        let get = KvsRequestRef::Get { id: 7, key: &key };
        let put = KvsRequestRef::Put {
            id: 1 << 40,
            key: &key,
            value: &value,
        };
        let (mut via_get, mut via_put) = (Vec::new(), Vec::new());
        encode_get_into(7, &key, &mut via_get);
        encode_put_into(1 << 40, &key, &value, &mut via_put);
        assert_eq!(via_get, get.encode());
        assert_eq!(via_put, put.encode());
        add(format!("kvs get {n}"), get.encode());
        add(format!("kvs put {n}"), put.encode());
        let mut into = vec![0xee];
        encode_response_into(3, KvsStatus::Ok, &value, &mut into);
        assert_eq!(into[1..], encode_response(3, KvsStatus::Ok, &value));
        add(format!("kvs response {n}"), into[1..].to_vec());

        let mut op = Vec::new();
        FileOpRef::Write {
            offset: 4096,
            data: &value,
        }
        .encode_into(&mut op);
        add(format!("file write {n}"), op);
        add(
            format!("file response {n}"),
            encode_file_response(FileStatus::Ok, &value),
        );
        add(
            format!("fs create {n}"),
            FsOp::Create { path: text('p', n) }.encode(),
        );
        add(
            format!("fs delete {n}"),
            FsOp::Delete { path: text('p', n) }.encode(),
        );
        add(
            format!("loader {n}"),
            encode_loader_params(&text('i', n), &value),
        );
        add(
            format!("broker {n}"),
            encode_broker_params(DeviceId(3), ServiceId(100), Token(u128::MAX - 1), &value),
        );
        add(format!("packet {n}"), encode_packet(PortId(9), &value));
        add(
            format!("login {n}"),
            encode_login(&text('u', n), &text('w', n)),
        );
        add(
            format!("dir reply {n}"),
            DirMsg::Reply {
                epoch: 1 << 20,
                endpoints: vec![
                    DirEndpoint {
                        name: text('n', n),
                        kind: "smart-nic".into(),
                        machine: 2,
                        port: 1 << 31,
                    },
                    DirEndpoint {
                        name: "m0/kvs".into(),
                        kind: text('k', n),
                        machine: 0,
                        port: 4,
                    },
                ],
            }
            .encode(),
        );
    }
    for status in [
        KvsStatus::Ok,
        KvsStatus::NotFound,
        KvsStatus::Busy,
        KvsStatus::Error,
        KvsStatus::Unavailable,
    ] {
        add(
            format!("kvs {status:?}"),
            encode_response(u64::MAX, status, b""),
        );
    }
    add(
        "kvs busy depth".into(),
        encode_response(5, KvsStatus::Busy, &513u32.to_le_bytes()),
    );
    for (name, op) in [
        (
            "file read",
            FileOpRef::Read {
                offset: u64::MAX,
                len: 4096,
            },
        ),
        ("file stat", FileOpRef::Stat),
        ("file flush", FileOpRef::Flush),
    ] {
        let mut buf = vec![0xee];
        op.encode_into(&mut buf);
        add(name.into(), buf[1..].to_vec());
    }
    for status in [
        FileStatus::Ok,
        FileStatus::Eof,
        FileStatus::NoSpace,
        FileStatus::Io,
        FileStatus::Bad,
    ] {
        add(
            format!("file {status:?}"),
            encode_file_response(status, b""),
        );
    }
    add("fs list".into(), FsOp::List.encode());
    add("fabric params".into(), encode_fabric_params(0x1234));
    for hint in [0, 127, 128, 1 << 40] {
        add(
            format!("dir query {hint}"),
            DirMsg::Query { epoch_hint: hint }.encode(),
        );
    }
    add(
        "dir reply empty".into(),
        DirMsg::Reply {
            epoch: 0,
            endpoints: vec![],
        }
        .encode(),
    );
    add("dir unchanged".into(), DirMsg::Unchanged.encode());
    out
}

/// A valid frame, then one with an unknown tag, one with a byte too many
/// and one a byte short: each decoder's verdict on all four.
fn frames(valid: &[u8], tag_at: usize, tag: u8) -> [Vec<u8>; 4] {
    let mut unknown = valid.to_vec();
    unknown[tag_at] = tag;
    let mut long = valid.to_vec();
    long.push(0);
    [
        valid.to_vec(),
        unknown,
        long,
        valid[..valid.len() - 1].to_vec(),
    ]
}

/// Every decoder's verdicts, by name.
fn verdicts() -> Vec<(String, [String; 4])> {
    let mut out = Vec::new();
    let mut add = |name: &str, v: [String; 4]| out.push((name.to_string(), v));
    let req = KvsRequestRef::Put {
        id: 3,
        key: b"k",
        value: b"v",
    }
    .encode();
    add(
        "kvs request",
        frames(&req, 0, 9).map(|f| verdict(KvsRequestRef::decode(&f))),
    );
    let resp = encode_response(4, KvsStatus::NotFound, b"v");
    add(
        "kvs response",
        frames(&resp, 0, 9).map(|f| verdict(KvsResponseRef::decode(&f))),
    );
    let mut op = Vec::new();
    FileOpRef::Write {
        offset: 1,
        data: b"d",
    }
    .encode_into(&mut op);
    add(
        "file op",
        frames(&op, 0, 9).map(|f| verdict(FileOpRef::decode(&f).ok())),
    );
    let reply = encode_file_response(FileStatus::Eof, b"ab");
    add(
        "file response",
        frames(&reply, 0, 9).map(|f| {
            verdict(decode_response(&f).map(|(status, data)| format!("{status:?} {data:?}")))
        }),
    );
    let query = DirMsg::Query { epoch_hint: 5 }.encode();
    add(
        "dir query",
        frames(&query, 2, 9).map(|f| verdict(DirMsg::decode(&f).ok())),
    );
    let dir = DirMsg::Reply {
        epoch: 2,
        endpoints: vec![DirEndpoint {
            name: "m1/nic0".into(),
            kind: "smart-nic".into(),
            machine: 1,
            port: 7,
        }],
    }
    .encode();
    add(
        "dir reply",
        frames(&dir, 2, 0).map(|f| verdict(DirMsg::decode(&f).ok())),
    );
    let unchanged = DirMsg::Unchanged.encode();
    add(
        "dir unchanged",
        frames(&unchanged, 2, 9).map(|f| verdict(DirMsg::decode(&f).ok())),
    );
    let packet = encode_packet(PortId(2), b"xy");
    add(
        "packet",
        frames(&packet, 4, 9).map(|f| verdict(decode_packet(&f))),
    );
    let token = 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128.to_le_bytes();
    add(
        "login reply",
        frames(&token, 0, 0xff).map(|f| verdict(decode_login_response(&f))),
    );
    out
}

const MESSAGES: &str = r#"kvs get 0 = 0107 00*8
kvs put 0 = 02 00*5 01 00*4
kvs response 0 = 0003 00*8
file write 0 = 020010 00*7
file response 0 = 00
fs create 0 = 0100
fs delete 0 = 0200
loader 0 = 0000
broker 0 = 030000006400fe ff*15 00
packet 0 = 09 00*4
login 0 = 0000
dir reply 0 = dcd102808040020009736d6172742d6e696302 00*6 80066d302f6b7673 00*5 04000000
kvs get 127 = 0107 00*7 7f 6b*127
kvs put 127 = 02 00*5 0100007f 6b*127 7f 76*127
kvs response 127 = 0003 00*7 7f 76*127
file write 127 = 020010 00*6 7f 76*127
file response 127 = 00 76*127
fs create 127 = 017f 70*127
fs delete 127 = 027f 70*127
loader 127 = 7f 69*127 7f 76*127
broker 127 = 030000006400fe ff*15 7f 76*127
packet 127 = 090000007f 76*127
login 127 = 7f 75*127 7f 77*127
dir reply 127 = dcd102808040027f 6e*127 09736d6172742d6e696302 00*6 80066d302f6b76737f 6b*127 00*4 04000000
kvs get 128 = 0107 00*7 8001 6b*128
kvs put 128 = 02 00*5 0100008001 6b*128 8001 76*128
kvs response 128 = 0003 00*7 8001 76*128
file write 128 = 020010 00*6 8001 76*128
file response 128 = 00 76*128
fs create 128 = 018001 70*128
fs delete 128 = 028001 70*128
loader 128 = 8001 69*128 8001 76*128
broker 128 = 030000006400fe ff*15 8001 76*128
packet 128 = 090000008001 76*128
login 128 = 8001 75*128 8001 77*128
dir reply 128 = dcd102808040028001 6e*128 09736d6172742d6e696302 00*6 80066d302f6b76738001 6b*128 00*4 04000000
kvs Ok = 00 ff*8 00
kvs NotFound = 01 ff*8 00
kvs Busy = 02 ff*8 00
kvs Error = 03 ff*8 00
kvs Unavailable = 04 ff*8 00
kvs busy depth = 0205 00*7 0401020000
file read = 01 ff*8 00100000
file stat = 03
file flush = 04
file Ok = 00
file Eof = 01
file NoSpace = 02
file Io = 03
file Bad = 04
fs list = 03
fabric params = 3412
dir query 0 = dcd10100
dir query 127 = dcd1017f
dir query 128 = dcd1018001
dir query 1099511627776 = dcd101 80*5 20
dir reply empty = dcd1020000
dir unchanged = dcd103
"#;

const VERDICTS: &str = r#"kvs request: Put { id: 3, key: [107], value: [118] } | refused | refused | refused
kvs response: KvsResponseRef { id: 4, status: NotFound, value: [118] } | KvsResponseRef { id: 4, status: Error, value: [118] } | refused | refused
file op: Write { offset: 1, data: [100] } | refused | refused | refused
file response: "Eof [97, 98]" | "Bad [97, 98]" | "Eof [97, 98, 0]" | "Eof [97]"
dir query: Query { epoch_hint: 5 } | refused | refused | refused
dir reply: Reply { epoch: 2, endpoints: [DirEndpoint { name: "m1/nic0", kind: "smart-nic", machine: 1, port: 7 }] } | refused | refused | refused
dir unchanged: Unchanged | refused | refused | refused
packet: (PortId(2), [120, 121]) | refused | refused | refused
login reply: token:0x102030405060708090a0b0c0d0e0f10 | token:0x102030405060708090a0b0c0d0e0fff | refused | refused
"#;

#[test]
fn every_message_encodes_as_before() {
    let got: String = messages()
        .iter()
        .map(|(name, bytes)| format!("{name} = {}\n", show(bytes)))
        .collect();
    assert_eq!(got, MESSAGES);
}

#[test]
fn every_decoder_refuses_as_before() {
    let got: String = verdicts()
        .iter()
        .map(|(name, v)| format!("{name}: {}\n", v.join(" | ")))
        .collect();
    assert_eq!(got, VERDICTS);
}

/// Tag 3 was a KVS delete, which nothing sent: its bytes, a get's layout
/// under tag 3, are refused at every key size.
#[test]
fn a_kvs_delete_is_refused() {
    for n in SIZES {
        let mut delete = KvsRequestRef::Get {
            id: 9,
            key: &fill(0x6b, n),
        }
        .encode();
        delete[0] = 3;
        assert_eq!(KvsRequestRef::decode(&delete), None, "key of {n} bytes");
    }
}

/// A status tag no status has reads as the catch-all, not as a refusal:
/// fault injection corrupts frames, and what they decode to is recorded.
#[test]
fn an_unknown_status_reads_leniently() {
    let mut kvs = encode_response(1, KvsStatus::Ok, b"");
    kvs[0] = 9;
    let resp = KvsResponseRef::decode(&kvs).expect("a lenient status");
    assert_eq!(resp.status, KvsStatus::Error);
    let (status, data) = decode_response(&[9]).expect("a lenient status");
    assert_eq!((status, data), (FileStatus::Bad, &[][..]));
}

#[test]
fn a_directory_frame_with_another_magic_is_refused() {
    let mut query = DirMsg::Query { epoch_hint: 0 }.encode();
    assert!(DirMsg::sniff(&query));
    query[1] ^= 0x01;
    assert!(!DirMsg::sniff(&query));
    assert!(DirMsg::decode(&query).is_err());
}

/// A reply that claims 2^60 endpoints in 13 bytes (magic, tag, a one-byte
/// epoch, a nine-byte count): refused, having reserved room for at most
/// 4,096 of them.
#[test]
fn a_hostile_endpoint_count_reserves_at_most_4096() {
    let mut frame = vec![0xdc, 0xd1, 2, 1];
    let mut n = 1u64 << 60;
    while n >= 0x80 {
        frame.push(n as u8 | 0x80);
        n >>= 7;
    }
    frame.push(n as u8);
    assert_eq!(frame.len(), 13);
    let (decoded, seen) = watch(|| DirMsg::decode(&frame));
    assert!(decoded.is_err(), "{decoded:?}");
    let largest = seen.largest;
    assert!(
        largest <= 4096 * std::mem::size_of::<DirEndpoint>() as u64,
        "reserved {largest} bytes"
    );
}

/// The open parameters written by hand in several crates before they were
/// declared, in the bytes those writers produced: `u32(pasid)`,
/// `u64(size)`, `u16(service)` and `u128(token)`.
#[test]
fn declared_open_params_write_what_the_hand_writers_wrote() {
    let pasid = 0x0102_0304;
    assert_eq!(FileOpen { pasid }.encode(), u32::to_le_bytes(pasid));
    assert_eq!(FileOpened { size: 4242 }.encode(), 4242u64.to_le_bytes());
    let service = ServiceId(0x0102);
    assert_eq!(FsCreated { service }.encode(), [2, 1]);
    let token = Token(u128::MAX - 5);
    assert_eq!(LoginReply { token }.encode(), token.0.to_le_bytes());
}

/// The verdicts of the decoders that were private to their devices, whose
/// bytes `every_message_encodes_as_before` pins: recorded when each became
/// a declaration, with the refusal each gives.
const PRIVATE_VERDICTS: &str = r#"fs op: Ok(Create { path: "/a" }) | Err(BadDiscriminant { what: "FsOp", value: 9 }) | Err(TrailingBytes { remaining: 1 }) | Err(Truncated)
loader: Ok(LoaderParams { image: "img", contents: [120, 121] }) | Err(Truncated) | Err(TrailingBytes { remaining: 1 }) | Err(Truncated)
broker: Ok(BrokerParams { target: dev:3, service: svc:100, token: token:0x5, inner: [105, 110] }) | Ok(BrokerParams { target: dev:9, service: svc:100, token: token:0x5, inner: [105, 110] }) | Err(TrailingBytes { remaining: 1 }) | Err(Truncated)
fabric params: Ok(FabricParams { regions: 2 }) | Ok(FabricParams { regions: 9 }) | Err(TrailingBytes { remaining: 1 }) | Err(Truncated)
login: Ok(Login { user: "al", password: "pw" }) | Err(InvalidUtf8) | Err(TrailingBytes { remaining: 1 }) | Err(Truncated)
file open: Ok(FileOpen { pasid: 7 }) | Ok(FileOpen { pasid: 9 }) | Err(TrailingBytes { remaining: 1 }) | Err(Truncated)
file opened: Ok(FileOpened { size: 9 }) | Ok(FileOpened { size: 1 }) | Err(TrailingBytes { remaining: 1 }) | Err(Truncated)
fs created: Ok(FsCreated { service: svc:100 }) | Ok(FsCreated { service: svc:1 }) | Err(TrailingBytes { remaining: 1 }) | Err(Truncated)
"#;

#[test]
fn formerly_private_decoders_refuse_as_declared() {
    fn show<T: Debug>(r: Result<T, lastcpu_bus::wire::WireError>) -> String {
        format!("{r:?}")
    }
    let mut got = String::new();
    let mut add = |name: &str, v: [String; 4]| got += &format!("{name}: {}\n", v.join(" | "));
    let fs = FsOp::Create { path: "/a".into() }.encode();
    add("fs op", frames(&fs, 0, 9).map(|f| show(FsOp::decode(&f))));
    let loader = encode_loader_params("img", b"xy");
    add(
        "loader",
        frames(&loader, 0, 9).map(|f| show(LoaderParams::decode(&f))),
    );
    let broker = encode_broker_params(DeviceId(3), ServiceId(100), Token(5), b"in");
    add(
        "broker",
        frames(&broker, 0, 9).map(|f| show(BrokerParams::decode(&f))),
    );
    let fabric = encode_fabric_params(2);
    add(
        "fabric params",
        frames(&fabric, 0, 9).map(|f| show(FabricParams::decode(&f))),
    );
    let login = encode_login("al", "pw");
    add(
        "login",
        frames(&login, 1, 0xff).map(|f| show(Login::decode(&f))),
    );
    let open = FileOpen { pasid: 7 }.encode();
    add(
        "file open",
        frames(&open, 0, 9).map(|f| show(FileOpen::decode(&f))),
    );
    let opened = FileOpened { size: 9 }.encode();
    add(
        "file opened",
        frames(&opened, 0, 1).map(|f| show(FileOpened::decode(&f))),
    );
    let created = FsCreated {
        service: ServiceId(100),
    }
    .encode();
    add(
        "fs created",
        frames(&created, 0, 1).map(|f| show(FsCreated::decode(&f))),
    );
    assert_eq!(got, PRIVATE_VERDICTS);
}
